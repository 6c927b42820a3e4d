from .cli import main
if __name__ == "__main__":  # not when a walk over the package imports it
    raise SystemExit(main())
