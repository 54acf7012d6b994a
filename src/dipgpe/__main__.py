"""Run the dipgpe command line as ``python -m dipgpe``."""

from .cli import main

if __name__ == "__main__":
    main()
