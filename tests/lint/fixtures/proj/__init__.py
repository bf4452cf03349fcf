"""Fixture project for the flow-rule tests.

A miniature repo with TP/TN pairs for RPR002/RPR011/RPR012, an aliased
import, and an unseeded generator that reaches a draw through a
re-export and a pass-through helper in other modules.  Nothing here is
imported at test time -- the files are read as text and linted.
"""
