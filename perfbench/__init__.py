"""End-to-end and per-layer benchmark of the pbtkit command line.

Run it from the root of the repository:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object; the full record (environment, sample counts, exact counts) goes to
``.perfbench/results/``.  The benchmark's own tests:

    python3 -m pytest perfbench/tests
"""
