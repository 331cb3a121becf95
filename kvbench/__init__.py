"""The repository benchmark of record (see README.md)."""
