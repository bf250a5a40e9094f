"""Quantum stochastic calculus and quadratic-cost feedback control toolkit.

Subpackages / modules:

* ``qscontrol.ito``       exact square-of-white-noise Ito table (the first-
                          order table on its K = 1 labels), sl(2)
                          representation, module operations
* ``qscontrol.fock``      truncated-Fock numerics: matrix-element ODEs,
                          tensor oracle, characteristic functionals, flows
* ``qscontrol.classical`` LQR / LQG reference implementations
* ``qscontrol.qcontrol``  quantum quadratic control: operator Riccati
                          conditions, synthesis, symbolic flow derivations
* ``qscontrol.rf``        representation-free surrogate: Levy pairs,
                          stochastic Riccati Picard iteration, feedback
* ``qscontrol.cli``       experiment runner
"""

__version__ = "0.1.0"
