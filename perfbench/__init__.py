"""End-to-end benchmark of the C-SAW reproduction (see ``perfbench/run.py``)."""
