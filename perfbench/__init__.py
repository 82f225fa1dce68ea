"""perfbench: the repository's performance ladder (see README.md)."""
