"""``python -m orthoproof``: the same command line as ``orthoproof``."""

from .cli import main

if __name__ == "__main__":
    main()
