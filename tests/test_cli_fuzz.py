"""A property test over the CLI's flag space: cli.main, run in-process on
random argv for gen, train, finetune, eval and gradcheck, keeps its exit-code
contract, lets no exception escape, prints at most one error line and leaves
every file it reads as it was."""

import contextlib
import hashlib
import io
import json
import shutil
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hifbench import cli
from hifbench.datafile import write_dataset
from hifbench.models import CnnSpec, ConvBlockSpec, MlpSpec, build_model, save_checkpoint

SMALL_CNN = CnnSpec(blocks=tuple(ConvBlockSpec(2, k, 2, 2) for k in (5, 3, 3, 3)), hidden_dim=4)
SMALL_MLP = MlpSpec(hidden_dims=(8, 8, 4))

# Each flag has a pool of valid values and one of odd ones: edge values,
# values of the wrong kind, and paths that are missing, of the wrong file kind
# or an input.  An example draws a valid value for every flag and then swaps
# in odd values for up to two flags, so that each odd value also meets argv
# that reaches the work.  Each example runs on its own copy of the inputs, in
# {in}, and writes into {new}, a fresh directory.


def opt(name: str, valid: list, odd: list) -> tuple:
    """The (valid, odd) pools of argv fragments of a flag; None leaves it out."""
    return tuple([[] if v is None else [name, v] for v in pool] for pool in (valid, odd))


SEED = ([None, 0, 7], [2**64 - 1, 2**64, -1, "nan"])
OUT = (["{new}/out.bin"], [None, "{new}", "{new}/missing/out.bin", "", "{in}/data.dataset",
                           "{in}/cnn.ckpt", "{in}/gen.json"])
MODEL = ([None, "cnn", "mlp", "{in}/cnn.json", "{in}/mlp.json"],
         ["{in}/bad_spec.json", "{in}/missing.json", "{in}/data.dataset", "{in}/gen.json"])
SPLIT = [
    opt("--data", ["{in}/data.dataset"],
        [None, "{in}/missing.dataset", "{in}/cnn.ckpt", "{in}/gen.json"]),
    opt("--train-fraction", [None, 0.5, 0.8], [0, 1, "nan", "inf", -1, 2**64]),
    opt("--split-seed", *SEED),
]
TRAINING = [
    opt("--out", *OUT),
    opt("--curves", [None, "{new}/curves.csv"], ["{new}/out.bin", "{in}/data.dataset", "{new}"]),
    # --epochs is always given: a large count asks for that much work
    opt("--epochs", [0, 1, 2], [None, -1, "nan", 1.5]),
    opt("--lr", [None, 0.01], [0, 1e3, "nan", "inf", -1, 2**64]),
    opt("--batch", [None, 1, 8], [0, -1, 2**64, "nan"]),
    opt("--seed", *SEED),
    opt("--init-seed", *SEED),
]
CKPT = (["{in}/cnn.ckpt", "{in}/mlp.ckpt"], [None, "{in}/missing.ckpt", "{in}/data.dataset"])
FLAGS = {
    "gen": [
        ([["--profile", "case2"], ["--profile", "case1"], ["--config", "{in}/gen.json"]],
         [[], ["--profile", "case2", "--config", "{in}/gen.json"], ["--profile", "case3"],
          ["--config", "{in}/bad_gen.json"], ["--config", "{in}/missing.json"],
          ["--config", "{in}/data.dataset"]]),
        opt("--seed", *SEED),
        # --count is always given: case1's profile alone asks for 5000 windows
        opt("--count", [2, 5], [0, 1, -1, 2**64, "nan"]),
        opt("--out", *OUT),
    ],
    "train": [opt("--model", *MODEL), *SPLIT, *TRAINING],
    "finetune": [opt("--ckpt", *CKPT), ([[], ["--scratch"]], []), *SPLIT, *TRAINING],
    "eval": [
        ([["--ckpt", "{in}/cnn.ckpt"], ["--ckpt", "{in}/cnn.ckpt", "{in}/mlp.ckpt"]],
         [[], ["--ckpt", "{in}/missing.ckpt"], ["--ckpt", "{in}/mlp.ckpt", "{in}/data.dataset"],
          ["--ckpt", "{in}/cnn.ckpt", "{in}/cnn.ckpt"]]),
        ([[], ["--holdout"]], []),
        opt("--threshold", [None, 0.5, 0.3], [0, 1, "nan", "inf", -1, 2**64]),
        opt("--out", [None, "{new}/report.csv"], OUT[1][1:]),
        *SPLIT,
    ],
    "gradcheck": [opt("--model", *MODEL), opt("--seed", *SEED)],
}


def draw_argv(data, command: str) -> list:
    flags = FLAGS[command]
    parts = [data.draw(st.sampled_from(valid), label="valid") for valid, _ in flags]
    oddable = [i for i, (_, odd) in enumerate(flags) if odd]
    for i in data.draw(st.sets(st.sampled_from(oddable), max_size=2), label="odd flags"):
        parts[i] = data.draw(st.sampled_from(flags[i][1]), label="odd")
    return [command, *(arg for part in parts for arg in part)]


@pytest.fixture(scope="module")
def inputs(small_dataset, tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("inputs")
    write_dataset(small_dataset, root / "data.dataset")
    for name, spec in (("cnn", SMALL_CNN), ("mlp", SMALL_MLP)):
        save_checkpoint(build_model(spec, 0), {"init_seed": 0}, root / f"{name}.ckpt")
        (root / f"{name}.json").write_text(json.dumps(spec.to_dict()))
    (root / "bad_spec.json").write_text(json.dumps({"kind": "mlp", "hidden_dims": [0, 1, 2]}))
    (root / "gen.json").write_text(json.dumps({"scenario": "target", "count": 4, "seed": 3}))
    (root / "bad_gen.json").write_text(json.dumps({"scenario": "target", "count": "4"}))
    return root


def read_files(argv: list) -> list:
    """The paths that argv's --data, --config, --model and --ckpt name."""
    named, flag = [], None
    for arg in argv:
        if arg.startswith("--"):
            flag = arg
        elif flag in ("--data", "--config", "--model", "--ckpt"):
            named.append(Path(arg))
    return [path for path in named if path.is_file()]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", sorted(FLAGS))
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_flags_keep_the_exit_code_contract(inputs, tmp_path_factory, command, data):
    new = tmp_path_factory.mktemp("example")
    copy = shutil.copytree(inputs, new / "in")
    argv = [str(a).format(**{"in": copy, "new": new / "out"}) for a in draw_argv(data, command)]
    (new / "out").mkdir()
    before = {path: digest(path) for path in read_files(argv)}
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert 0 <= code <= 5 and len(errors) <= 1, (argv, code, err.getvalue())
    assert {path: digest(path) for path in before} == before, argv
