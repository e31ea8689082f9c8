"""`python -m hvw ...` runs the command line, as the installed `hvw` script does."""

from .cli import main_entry

main_entry()
