"""Stabilized saddle point discretizations with a computable dual product.

The package measures and verifies the spectral constants that govern a
residual-based stabilization: a truth-space model of a Hilbert space and its
dual (``hilbert``), the surrogate dual product on an auxiliary subspace with
its equivalence constants (``dualprod``), assembly and coercivity checks of
the stabilized system (``saddle``), a 1D mixed model for experiments
(``models``), and a CLI (``cli``) built on dense symmetric kernels
(``algebra``).

The package root holds no API: each name is imported from the module that
defines it, e.g. ``from dualstab.saddle import constants`` or
``from dualstab.dualprod import make_stiffness``.
"""

__version__ = "0.1.0"
