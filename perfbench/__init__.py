"""The campaign benchmark of the repro validation pipeline (see README.md)."""
