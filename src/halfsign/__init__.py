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
"""

from .arith import kronecker, primes_up_to, squarefree_decompose
from .characters import CharacterTable, ProgressionSpec, index_of, order_of, progression_extract
from .errors import HalfsignError
from .flagship import build_flagship, flagship_form, ramanujan_delta, verify_eigenform
from .forms import (
    HalfIntegralForm,
    RealCharacter,
    coefficient,
    load_form,
    load_series,
    save_form,
)
from .genfun import (
    Polynomial,
    RationalGF,
    expand,
    h_n_closed,
    real_root_count,
    remark_polynomial,
    s_split_closed,
)
from .hecke import (
    HeckeLocalData,
    deligne_check,
    eigen_consistency,
    extract_trace,
    multiplicativity_check,
    satake_data,
)
from .qseries import EtaRecipe, TruncatedSeries, eta_power, expand_recipe, series_mul, theta_series
from .shimura import chi1, crosscheck_lift, lift_coefficients
from .signscan import SignChangeReport, count_sign_changes, scan, subsequence, twisted_sequence

__version__ = "0.1.0"

__all__ = [
    "kronecker",
    "primes_up_to",
    "squarefree_decompose",
    "CharacterTable",
    "ProgressionSpec",
    "index_of",
    "order_of",
    "progression_extract",
    "HalfsignError",
    "build_flagship",
    "flagship_form",
    "ramanujan_delta",
    "verify_eigenform",
    "HalfIntegralForm",
    "RealCharacter",
    "coefficient",
    "load_form",
    "load_series",
    "save_form",
    "Polynomial",
    "RationalGF",
    "expand",
    "h_n_closed",
    "real_root_count",
    "remark_polynomial",
    "s_split_closed",
    "HeckeLocalData",
    "deligne_check",
    "eigen_consistency",
    "extract_trace",
    "multiplicativity_check",
    "satake_data",
    "EtaRecipe",
    "TruncatedSeries",
    "eta_power",
    "expand_recipe",
    "series_mul",
    "theta_series",
    "chi1",
    "crosscheck_lift",
    "lift_coefficients",
    "SignChangeReport",
    "count_sign_changes",
    "scan",
    "subsequence",
    "twisted_sequence",
]
