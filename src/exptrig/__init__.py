"""Evaluation and auditing of exponential-trigonometric integrals over [0, 2pi].

The family

    int_0^{2pi} exp(p cos x + q sin x) {sin, cos}(a cos x + b sin x - m x) dx

is evaluated three ways: through the original Bessel-function closed
forms (faithful to the letter, including their branch-cut sign error),
through corrected 0F1 closed forms valid for real and complex
coefficients, and through an independent spectral trapezoid oracle.
Exact predicates describe where the original forms flip sign.
"""

from .catalog import (
    ENTRIES,
    CatalogEntry,
    check_entry,
    get_entry,
    gr_3_931_4,
    gr_3_932_1,
    gr_3_932_2,
    gr_3_936_1,
    gr_3_936_2,
    gr_3_936_3,
    gr_3_936_4,
    gr_3_937_3_complex,
    gr_3_937_3_corrected,
    gr_3_937_3_original,
    gr_3_937_4_complex,
    gr_3_937_4_corrected,
    gr_3_937_4_original,
)
from .complexops import (
    cpow_half,
    pow_int_over_factorial,
    power_combination_flips,
    principal_arg,
)
from .conditions import (
    SignErrorReport,
    build_report,
    build_reports,
    case1_predicate,
    case2_predicate,
    case3_predicate,
    k_constant,
    overall_sign_error,
)
from .errors import ConvergenceError, DomainError
from .formulas import (
    eval_complex_cos,
    eval_complex_f,
    eval_complex_sin,
    eval_corrected_original_cos,
    eval_corrected_original_f,
    eval_corrected_original_sin,
    eval_f_bessel,
    eval_f_hyp,
    eval_improved_cos,
    eval_improved_sin,
    eval_original_cos,
    eval_original_sin,
)
from .params import (
    ComplexParams,
    Method,
    RealParams,
    Result,
)
from .quadrature import oracle_cos, oracle_f, oracle_sin
from .series import bessel_i, hyp0f1

__version__ = "0.1.0"
