"""Exact FAB conformal prediction intervals with small-area information sharing.

The package computes conformal prediction intervals whose conformity
measure is the posterior predictive density of a conjugate normal working
model. The resulting intervals keep distribution-free frequentist coverage
while borrowing strength from prior information, and are computed exactly
in O(n log n). A leave-one-area-out empirical-Bayes pipeline extends the
method to many small areas with spatial structure, and a seeded Monte
Carlo harness reproduces the coverage and expected-width comparisons
against the distance-to-average conformal, pivot, and empirical-Bayes
baselines.

Each module's ``__all__`` is the list of its public names, and every one
of them can be imported from the package itself.
"""

from .baselines import *
from .conformal import *
from .fab import *
from .intervals import *
from .simulate import *
from .small_area import *
from .working_model import *

__version__ = "0.1.0"
