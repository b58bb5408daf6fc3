"""cellcloud: whole-slide cell point clouds as first-class data.

Ingest per-patch cell detections into typed 2-D point clouds, embed each
cell by its neighborhood density structure, reduce a cloud to a single
descriptor with a hierarchical group-attention forward pass, and score
clouds for survival analysis (CPS/MCPS, Kaplan-Meier, log-rank, C-index).
"""

from .core import *
from .ingest import *
from .spatial import *
from .nie import *
from .hsp import *
from .clinical import *

__version__ = "0.1.0"
