"""``python -m lineparadox``: the same command line as ``lineparadox``."""

from .cli import entry

if __name__ == "__main__":
    entry()
