"""Reference oracles for the differential test suites.

Each module holds the original implementation of one behaviour that the
shipped package now computes with a vectorized engine, moved here
verbatim so the tests can compare the two on the same inputs:

* :mod:`tests.oracles.wires` — the ``Segment``/``Wire`` objects, their
  lossless conversion to and from a ``WireTable``, and
  ``ObjectLayout``, a layout held as a mutable wire list;
* :mod:`tests.oracles.validate` — the object-per-wire layout checker;
* :mod:`tests.oracles.builders` — the object-per-wire collinear, grid,
  grid2d, CCC, stage-column and generic collinear layout builders, with
  :mod:`tests.oracles.blocks`, the per-block planner the grid builder
  assembles;
* :mod:`tests.oracles.svg` — the object-per-wire SVG renderer;
* :mod:`tests.oracles.benes_routing` — the recursive Benes looping
  algorithm and its recursive simulator;
* :mod:`tests.oracles.queued_routing` — the triple-loop queued-routing
  simulator, and :mod:`tests.oracles.queued_ring` — the ring-buffer
  engine that the pop-time calendar replaced;
* :mod:`tests.oracles.packaging` — the per-link pin counters and the
  per-node module-size loop.

None of this is imported by ``repro``; it is test code.
"""
