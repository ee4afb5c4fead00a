"""Coupling-based closeness certificates for finite Markov chains and their approximations.

Given a kernel and a nearby approximating kernel, this package computes their
closeness constants exactly, builds the minimum-overlap coupling together
with its dominating two-state chain, evaluates every closed-form bound those
constants imply, and verifies the bounds empirically by simulation.  It also
ships the two-state family attaining the averaged-law bound with equality and
a Gibbs-sampler application where the approximating kernel comes from a
low-rank Gram matrix truncation.
"""

__version__ = "0.1.0"

from .errors import *
from .kernels import *
from .bounds import *
from .coupling import *
from .montecarlo import *
from .sharpness import *
from .gp_mcmc import *
