"""Exact verification toolkit for sign changes of half-integral-weight
Hecke eigenform coefficients.

Modules:
  arith       primes, squarefree parts, Kronecker symbol, exact rationals
  errors      the HalfsignError hierarchy
  qseries     exact truncated q-expansions, eta/theta products
  forms       half-integral form model, squarefree indexing, JSON I/O
  flagship    the verified eta(2z)^12 theta(z) form and eta(z)^24
  hecke       eigenvalue extraction, recurrence consistency, Satake data
  shimura     twist characters and lift coefficients
  genfun      rational generating functions, Lucas/Sturm machinery
  characters  Dirichlet tables mod q, progression extraction
  signscan    twisted sequences and sign-change scanning
  cli         command-line front end

The package re-exports nothing, and importing it loads none of these
modules. Import each public name from the module that defines it, whose
__all__ lists it: for example, `from halfsign.signscan import scan`.
"""

__version__ = "0.1.0"
