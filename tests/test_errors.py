"""The error contract: every public function given an argument outside its
domain raises a HalfsignError, and each plain domain error is an
InvalidInput, which is also a ValueError."""

import re
from pathlib import Path

import pytest

from halfsign import arith
from halfsign.characters import CharacterTable, ProgressionSpec, index_of, order_of
from halfsign.errors import (
    HalfsignError,
    InvalidInput,
    NonIntegralOffset,
    NotCoprime,
    NotExpandable,
    NotSquarefree,
    OutOfRange,
    SamePrime,
    ZeroBase,
    ZeroPolynomial,
)
from halfsign.flagship import build_flagship, flagship_form, ramanujan_delta
from halfsign.forms import HalfIntegralForm, coefficient
from halfsign.genfun import (
    Polynomial,
    RationalGF,
    closed_form_checks,
    expand,
    h_n_closed,
    real_root_count,
    remark_polynomial,
    s_split_closed,
    sturm_chain,
)
from halfsign.hecke import (
    base_indices,
    deligne_check,
    eigen_consistency,
    extract_trace,
    multiplicativity_check,
    satake_data,
    twisted_row,
)
from halfsign.qseries import (
    EtaRecipe,
    TruncatedSeries,
    eta_power,
    expand_recipe,
    series_pow,
    theta_series,
)
from halfsign.shimura import chi1, crosscheck_lift, lift_coefficients
from halfsign.signscan import scan, subsequence, twisted_sequence

README = Path(__file__).resolve().parents[1] / "README.md"
SERIES = TruncatedSeries(4, (0, 1, 0, -2, 0))
RECIPE = EtaRecipe(factors=((2, 12),), theta_power=1)

# (id, call on the flagship form, expected error): one row per way out of a
# domain, each module's public functions in turn
CASES = [
    # arith
    ("squarefree_decompose-zero", lambda f: arith.squarefree_decompose(0), InvalidInput),
    ("multiplicative_order-non-unit", lambda f: arith.multiplicative_order(6, 9), InvalidInput),
    ("multiplicative_order-zero-modulus", lambda f: arith.multiplicative_order(3, 0), InvalidInput),
    ("multiplicative_order-negative-modulus",
     lambda f: arith.multiplicative_order(3, -5), InvalidInput),
    ("smallest_primitive_root-composite",
     lambda f: arith.smallest_primitive_root(4), InvalidInput),
    # qseries
    ("TruncatedSeries-zero-prec", lambda f: TruncatedSeries(0, (0,)), InvalidInput),
    ("TruncatedSeries-short", lambda f: TruncatedSeries(3, (0, 1)), InvalidInput),
    ("TruncatedSeries.one-negative-prec", lambda f: TruncatedSeries.one(-1), InvalidInput),
    ("TruncatedSeries.coefficient-negative", lambda f: SERIES.coefficient(-1), InvalidInput),
    ("EtaRecipe-zero-scale", lambda f: EtaRecipe(((0, 24),)), InvalidInput),
    ("EtaRecipe-negative-exponent", lambda f: EtaRecipe(((2, -12),)), InvalidInput),
    ("EtaRecipe-negative-theta", lambda f: EtaRecipe(((2, 12),), -1), InvalidInput),
    ("EtaRecipe-offset", lambda f: EtaRecipe(((1, 8),)), NonIntegralOffset),
    ("EtaRecipe-triple", lambda f: EtaRecipe([(2, 12, 3)]), InvalidInput),
    ("EtaRecipe-not-a-pair", lambda f: EtaRecipe([5]), InvalidInput),
    ("EtaRecipe-not-iterable", lambda f: EtaRecipe(5), InvalidInput),
    ("series_pow-negative", lambda f: series_pow(SERIES, -1), InvalidInput),
    ("eta_power-zero-scale", lambda f: eta_power(0, 24, 10), InvalidInput),
    ("eta_power-negative-exponent", lambda f: eta_power(1, -24, 10), InvalidInput),
    ("eta_power-offset", lambda f: eta_power(1, 8, 10), NonIntegralOffset),
    ("eta_power-zero-prec", lambda f: eta_power(1, 24, 0), InvalidInput),
    ("theta_series-negative-prec", lambda f: theta_series(-3), InvalidInput),
    ("expand_recipe-zero-prec", lambda f: expand_recipe(RECIPE, 0), InvalidInput),
    # forms
    ("HalfIntegralForm-k", lambda f: HalfIntegralForm(4, 1, f.chi, f.series), InvalidInput),
    ("coefficient-zero-t", lambda f: coefficient(f, 0, 1), InvalidInput),
    ("coefficient-zero-m", lambda f: coefficient(f, 1, 0), InvalidInput),
    ("coefficient-square-t", lambda f: coefficient(f, 4, 1), NotSquarefree),
    # flagship
    ("build_flagship-zero-prec", lambda f: build_flagship(0), InvalidInput),
    ("flagship_form-zero-prec", lambda f: flagship_form(0), InvalidInput),
    ("ramanujan_delta-negative-prec", lambda f: ramanujan_delta(-1), InvalidInput),
    # shimura
    ("chi1-zero", lambda f: chi1(0, 1, 6, 4), InvalidInput),
    ("lift_coefficients-zero-t", lambda f: lift_coefficients(f, 0, 20), InvalidInput),
    ("lift_coefficients-square-t", lambda f: lift_coefficients(f, 4, 20), NotSquarefree),
    ("lift_coefficients-zero-n", lambda f: lift_coefficients(f, 1, 0), InvalidInput),
    ("crosscheck_lift-negative-t", lambda f: crosscheck_lift(f, -1, SERIES, 50), InvalidInput),
    # hecke
    ("base_indices-zero", lambda f: base_indices(f, 0), ZeroBase),
    ("twisted_row-composite", lambda f: twisted_row(f, 1, 9), InvalidInput),
    ("twisted_row-level", lambda f: twisted_row(f, 1, 2), NotCoprime),
    ("twisted_row-zero-t", lambda f: twisted_row(f, 0, 3), InvalidInput),
    ("extract_trace-composite", lambda f: extract_trace(f, 1, 15), InvalidInput),
    ("eigen_consistency-composite",
     lambda f: eigen_consistency(f, 9, 0, [1], 4), InvalidInput),
    ("eigen_consistency-negative-depth",
     lambda f: eigen_consistency(f, 3, 0, [1], -1), InvalidInput),
    ("satake_data-composite", lambda f: satake_data(0, 4, 6), InvalidInput),
    ("satake_data-k", lambda f: satake_data(0, 3, 1), InvalidInput),
    ("satake_data-float-k", lambda f: satake_data(3, 5, 6.0), InvalidInput),
    ("deligne_check-k", lambda f: deligne_check(0, 3, 0), InvalidInput),
    ("deligne_check-composite", lambda f: deligne_check(0, 4, 6), InvalidInput),
    ("multiplicativity_check-common-factor",
     lambda f: multiplicativity_check(f, 1, 2, 4), NotCoprime),
    ("multiplicativity_check-zero-t",
     lambda f: multiplicativity_check(f, 0, 2, 3), InvalidInput),
    # genfun
    ("Polynomial.divmod-zero", lambda f: Polynomial.of(1, 1).divmod(Polynomial(())),
     ZeroPolynomial),
    ("RationalGF-den-vanishes-at-0", lambda f: RationalGF.of([1], [0, 1]), NotExpandable),
    ("expand-negative-M", lambda f: expand(RationalGF.of([1], [1, -1]), -1), InvalidInput),
    ("expand-float-M", lambda f: expand(RationalGF.of([1], [1, -1]), 2.0), InvalidInput),
    ("h_n_closed-chi1", lambda f: h_n_closed(1, 0, 2, 3, 6), InvalidInput),
    ("h_n_closed-k", lambda f: h_n_closed(1, 0, 1, 3, 1), InvalidInput),
    ("h_n_closed-p-one", lambda f: h_n_closed(1, 0, 0, 1, 6), InvalidInput),
    ("h_n_closed-composite", lambda f: h_n_closed(1, 0, 0, 9, 6), InvalidInput),
    ("s_split_closed-k", lambda f: s_split_closed(1, 1, 0, 1, 3, 0), InvalidInput),
    ("s_split_closed-composite", lambda f: s_split_closed(1, 1, 0, 1, 4, 6), InvalidInput),
    ("closed_form_checks-empty", lambda f: closed_form_checks([], 1, 0, 1, 3, 6), InvalidInput),
    ("remark_polynomial-zero", lambda f: remark_polynomial(0, 3**11, 0), InvalidInput),
    ("real_root_count-zero", lambda f: real_root_count(Polynomial(())), ZeroPolynomial),
    ("sturm_chain-zero", lambda f: sturm_chain(Polynomial(())), ZeroPolynomial),
    # characters
    ("order_of-composite-p", lambda f: order_of(4, 7), InvalidInput),
    ("order_of-composite-q", lambda f: order_of(3, 4), InvalidInput),
    ("order_of-same", lambda f: order_of(5, 5), SamePrime),
    ("order_of-float-p", lambda f: order_of(3.0, 7), InvalidInput),
    ("index_of-composite-q", lambda f: index_of(3, 2, 4), InvalidInput),
    ("index_of-h", lambda f: index_of(3, 7, 7), OutOfRange),
    ("index_of-composite-p", lambda f: index_of(4, 2, 7), InvalidInput),
    ("ProgressionSpec.create-composite-q",
     lambda f: ProgressionSpec.create(q=9, h=2, p=5), InvalidInput),
    ("CharacterTable.build-composite", lambda f: CharacterTable.build(4), InvalidInput),
    ("CharacterTable.value_exponent-zero",
     lambda f: CharacterTable.build(7).value_exponent(1, 0), InvalidInput),
    ("CharacterTable.value_exponent-multiple",
     lambda f: CharacterTable.build(7).value_exponent(1, 14), InvalidInput),
    # signscan
    ("twisted_sequence-negative-M",
     lambda f: twisted_sequence(1, 0, 0, 3, 6, -1), InvalidInput),
    ("twisted_sequence-k", lambda f: twisted_sequence(1, 0, 0, 3, 1, 5), InvalidInput),
    ("twisted_sequence-chi1", lambda f: twisted_sequence(1, 0, 2, 3, 6, 5), InvalidInput),
    ("twisted_sequence-zero-p", lambda f: twisted_sequence(1, 0, 0, 0, 6, 3), InvalidInput),
    ("twisted_sequence-composite", lambda f: twisted_sequence(1, 0, 0, -3, 6, 3), InvalidInput),
    ("twisted_sequence-float-k", lambda f: twisted_sequence(1, 0, 0, 3, 6.0, 3), InvalidInput),
    ("twisted_sequence-float-chi1", lambda f: twisted_sequence(1, 0, 1.0, 3, 6, 3), InvalidInput),
    ("twisted_sequence-bool-chi1", lambda f: twisted_sequence(1, 0, True, 3, 6, 3), InvalidInput),
    ("twisted_sequence-float-p", lambda f: twisted_sequence(1, 0, 0, 3.0, 6, 3), InvalidInput),
    ("twisted_sequence-float-M", lambda f: twisted_sequence(1, 0, 0, 3, 6, 3.0), InvalidInput),
    ("subsequence-mode", lambda f: subsequence([1, 2, 3], "sideways"), InvalidInput),
    ("scan-composite-q", lambda f: scan(f, 1, (4, 2), 13, 50), InvalidInput),
    ("scan-h", lambda f: scan(f, 1, (5, 7), 13, 50), OutOfRange),
    ("scan-mode", lambda f: scan(f, 1, "sideways", 13, 50), InvalidInput),
    ("scan-list-mode", lambda f: scan(f, 1, [5, 2], 13, 50), InvalidInput),
    ("scan-negative-M", lambda f: scan(f, 1, "odd", 13, -1), InvalidInput),
    ("scan-zero-t", lambda f: scan(f, 0, "full", 13, 50), InvalidInput),
    ("scan-square-t", lambda f: scan(f, 4, "full", 13, 50), NotSquarefree),
]


@pytest.mark.parametrize("call, error", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_an_argument_outside_its_domain_raises_a_halfsign_error(flagship, call, error):
    with pytest.raises(HalfsignError) as info:
        call(flagship)
    assert type(info.value) is error


def test_invalid_input_is_both_a_halfsign_error_and_a_value_error():
    assert issubclass(InvalidInput, HalfsignError) and issubclass(InvalidInput, ValueError)


def test_the_readme_library_example_runs_as_written(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "unusable input: q = 4 is not prime", "3 20", "5 19", "7 21", "11 16", "13 21",
    ]
