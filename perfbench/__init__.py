"""End-to-end benchmark of the ANC reproduction; see README.md."""
