"""Exact torsion-submodule, assassin and fairness computations over
truncated monomial-rewriting quotient algebras."""

__version__ = "0.1.0"

from .errors import (
    InvalidPresentation,
    InvalidSchedule,
    NonConfluent,
    NotMonomialMode,
    ParseError,
    PatternError,
    RingMismatch,
    TorsionlabError,
    UnitIdeal,
    UnknownTag,
    VariableOutOfRange,
)
from .ring import (
    Element,
    Monomial,
    RewriteRule,
    RingPresentation,
    check_local_confluence,
    format_element,
    format_monomial,
    grlex_key,
)
from .ideals import (
    IdealHandle,
    MembershipAnswer,
    SaturationResult,
    ideal_colon,
    ideal_colon_ideal,
    ideal_intersection,
    ideal_membership,
    ideal_power,
    ideal_product,
    ideal_radical,
    ideal_saturation,
    ideal_sum,
    minimal_primes,
)
from .oracles import brute_force_membership
from .spectrum import (
    AssassinReport,
    assassins_cyclic,
    format_prime,
    prime_ideal,
    prime_variable_set,
    spectrum,
    weak_assassins_cyclic,
)
from .torsion import (
    FairnessComparison,
    FairnessReport,
    TorsionResult,
    VERDICT_NAMES,
    bounded_torsion_exponent,
    fairness_report,
    gamma_large_cyclic,
    gamma_small_cyclic,
    radical_probe,
)
from .harness import (
    HarnessInstance,
    HarnessReport,
    HarnessViolation,
    instance_script,
    proposition_harness,
    random_instance,
)
from .families import (
    ClaimResult,
    ExampleReport,
    FamilySpec,
    family_tags,
    get_family,
    instantiate,
    replicate_example,
)
from .dsl import Script, expand_ideal, expand_ring, parse

# The cli names resolve on first use: importing torsionlab.cli here would
# make `python -m torsionlab.cli` find the module already loaded and warn.
_CLI_NAMES = ("execute", "main")

__all__ = [name for name in dir() if not name.startswith("_")] + [
    "cli", *_CLI_NAMES]


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
