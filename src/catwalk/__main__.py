"""``python -m catwalk``: the command line, as the ``catwalk`` script runs it."""

from .cli import run

if __name__ == "__main__":
    run()
