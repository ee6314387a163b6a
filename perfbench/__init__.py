"""End-to-end benchmark of the Shogun reproduction (see README.md)."""
