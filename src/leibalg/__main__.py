"""``python -m leibalg``: the ``leibalg`` command line."""

from .cli import console_main

# Guarded so that importing the module (as tools that walk the package do)
# does not start the command line.
if __name__ == "__main__":
    console_main()
