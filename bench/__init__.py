"""End-to-end and per-layer benchmark of the pay-as-you-go wrangling loop.

Run ``python3 -m bench --help``; see ``bench/README.md``. This package sits
outside ``src/`` and imports the program only from the workload processes
it starts, so the parent process needs nothing but the standard library.
"""
