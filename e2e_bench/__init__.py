"""End-to-end sweep benchmark; see README.md in this directory."""
