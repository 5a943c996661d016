"""Rational subsets, positivity and verbal sets in free groups and free
products of cyclic groups, with an automated refuter for candidate rational
descriptions of verbal sets."""

from freerat.words import (  # noqa: F401
    IDENTITY,
    Word,
    WordClass,
    bezout_coefficients,
    classify,
    cyclic_reduce,
    exponent_gcd,
    exponent_profile,
    format_word,
    generator,
    parse_word,
    root_extract,
    substitute,
)
from freerat.freeprod import (  # noqa: F401
    FREE_ZZ,
    FPElement,
    FreeProduct,
    cyclic_form,
    format_fp,
    fp_substitute,
    parse_fp,
)
from freerat.ratexpr import (  # noqa: F401
    Finite,
    Product,
    RatExpr,
    Star,
    Union,
    format_ratexpr,
    parse_ratexpr,
)
from freerat.automata import (  # noqa: F401
    Acceptor,
    enumerate_accepted,
    intersect_positive,
    member,
)
from freerat.signs import (  # noqa: F401
    NotPositiveError,
    Positivized,
    positive_witness,
    positivize,
)
from freerat.gaps import (  # noqa: F401
    GapProfile,
    ScanConfig,
    criterion_scan,
    gamma,
    gap_profile,
    unbounded_family,
)
from freerat.verbal import (  # noqa: F401
    CommonSupportCase,
    Membership,
    RefutedCase,
    SingleAxisCase,
    VerbalQuery,
    abelianized_verbal,
    certify_nonvalue,
    enumerate_values,
    is_value,
    support_dichotomy_check,
    w_length,
)
from freerat.refuter import (  # noqa: F401
    DecompositionScheme,
    RefutationReport,
    decomposable,
    refute,
    replay_report,
    witness_word,
)
