"""``python -m jpminhash``: the command-line interface."""

from .cli import main

main()
