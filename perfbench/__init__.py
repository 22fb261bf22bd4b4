"""End-to-end REVMAX solver benchmark (see README.md)."""
