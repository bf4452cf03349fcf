"""Fixture project for the whole-program analyzer tests.

A miniature repo exercising exactly the resolution and flow shapes the
call-graph and taint tests pin: aliased imports, re-export chains,
methods and inheritance, and TP/TN pairs for RPR002/RPR011/RPR012.
Nothing here is imported at test time -- the files are read as text
and fed to :func:`repro.lint.callgraph.build_index`.
"""
