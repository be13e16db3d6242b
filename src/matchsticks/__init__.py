"""Matchstick graphs: planar graphs drawn with non-crossing unit segments.

The library verifies the matchstick property, refines near-unit drawings to
machine accuracy, analyzes first-order rigidity, builds larger 4-regular
graphs by gluing parts at degree-2 vertices, and certifies that every vertex
count from 63 upward is reachable.  A drawn corpus of reference graphs is
bundled; the ``matchsticks`` command line exposes the same workflows.

The package exports the pipeline-level API; everything else is imported
from its module (``matchsticks.refine``, ``matchsticks.verify``, ...).
"""

from . import corpus
from .construct import PartSpec, degree2_vertices, mirror_double, realize, ring_plan
from .pipeline import Certificate, certify

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "PartSpec",
    "certify",
    "corpus",
    "degree2_vertices",
    "mirror_double",
    "realize",
    "ring_plan",
]
