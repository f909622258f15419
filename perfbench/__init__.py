"""Host-time benchmark of the Stitch reproduction (see run.py)."""
