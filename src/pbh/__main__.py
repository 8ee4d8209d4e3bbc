"""`python -m pbh ...` runs the `pbh` command without an installed script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
