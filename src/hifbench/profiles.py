"""Built-in protocols for the two case studies.

Case 1: data-rich source feeder, ~5000 windows, 80/20 train-test split,
CNN vs MLP comparison.  Case 2: data-poor target feeder, 300 windows, 50/50
split, fine-tuned CNN vs CNN trained from scratch.
"""

from __future__ import annotations

from .models import CnnSpec, MlpSpec
from .training import TrainConfig
from .waveforms import GenConfig, ParamRanges

CASE1_SEED = 110340
CASE2_SEED = 130130
SPLIT_SEED = 7151

# Normal transients lean toward load steps, the most common switching event
# on a distribution feeder.
TRANSIENT_MIX = {"load_step": 0.5, "capacitor_switch": 0.2, "feeder_switch": 0.3}

CASE1_GEN = GenConfig(scenario="source", count=5000, seed=CASE1_SEED, transient_mix=TRANSIENT_MIX)
CASE1_TRAIN_FRACTION = 0.8

# The target feeder's thresholds sit in a narrower band and the fault current
# is smaller relative to the load: the distribution shift that motivates
# transfer.
CASE2_RANGES = ParamRanges(
    v_p=(0.10, 0.35),
    v_n=(0.10, 0.35),
    r_p=(100.0, 450.0),
    r_n=(100.0, 450.0),
    loading=(0.7, 1.3),
    jitter=(0.10, 0.30),
    frequency=(58.0, 62.0),
)
CASE2_GEN = GenConfig(scenario="target", count=300, seed=CASE2_SEED, ranges=CASE2_RANGES,
                      transient_mix=TRANSIENT_MIX)
CASE2_TRAIN_FRACTION = 0.5

CNN_SPEC = CnnSpec()
MLP_SPEC = MlpSpec()

# The CNN and the MLP train under this one protocol, so that the comparison
# isolates the architecture.
CASE1_TRAIN = TrainConfig(epochs=150, batch_size=32, learning_rate=0.01, momentum=0.9,
                          seed=41, validation_fraction=0.25, early_stop=(20, 1e-4))
CASE1_CNN_TRAIN = CASE1_MLP_TRAIN = CASE1_TRAIN  # the names perfbench reads

# Fine-tuning keeps the convolutional feature extractor frozen and retrains
# the dense head on the small target split.  The scratch baseline gets a far
# larger epoch budget and a gentler learning rate, but no warm start.
CASE2_FINETUNE = TrainConfig(epochs=50, batch_size=32, learning_rate=0.005, momentum=0.9,
                             seed=43, validation_fraction=0.25, freeze_conv=True,
                             early_stop=(10, 1e-4))
CASE2_SCRATCH = TrainConfig(epochs=400, batch_size=32, learning_rate=0.002, momentum=0.9,
                            seed=43, validation_fraction=0.25)

GEN_PROFILES = {"case1": CASE1_GEN, "case2": CASE2_GEN}
