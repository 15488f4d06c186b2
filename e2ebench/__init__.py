"""End-to-end benchmark of the paper's gathering algorithms (see README.md)."""
