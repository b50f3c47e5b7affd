"""Input size limits, in a module of their own.

The CLI checks a requested construction against them without loading the
graph readers.
"""

# Largest order accepted from edge-list or JSON input, and by the CLI for a
# requested construction.  Graph allocates every vertex up front, so a
# header such as "n 10000000000" would exhaust memory before any other
# check could run.
MAX_INPUT_ORDER = 1_000_000
