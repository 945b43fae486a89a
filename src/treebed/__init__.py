"""treebed: exact small-scale workbench for tree embeddings under degree conditions.

Library layout:
  graph       undirected hosts, peripheries, cuts, matchings, walks
  trees       guest trees and the certified splitting procedures
  embed       constructive embedders plus the exhaustive oracle
  generators  extremal host/tree families and seeded random corpora
  decompose   rich-subgraph machinery: refinement, classification, reports
  lab         experiment harness, report emission, CLI backend
  kernel      the hot search loops: oracle backtracking, exact cut branch and bound
"""

__version__ = "0.1.0"

# The kernels have one pure-Python implementation; benchmark records stamp
# this name.
KERNEL_BACKEND = "python"
