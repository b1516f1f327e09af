"""Builds perfect subgroups of direct products of finite perfect permutation
groups that surject onto every factor, and emits independently checkable
certificates of the construction."""

from .errors import (
    InputError,
    InternalError,
    PreconditionError,
    SearchError,
    SizeLimitError,
    VerificationError,
)
from .perms import Permutation, commutator, format_cycles, parse_cycles
from .groups import (
    ENUMERATION_CAP,
    PermGroup,
    centralizer,
    center,
    commutator_subgroup,
    conjugacy_classes,
    derived_subgroup,
    enumerate_elements,
    intersection,
    is_normal,
    is_perfect,
    mulclose,
    normal_closure,
)
from .products import DirectProduct

__version__ = "0.5.0"

from .words import (  # noqa: E402
    Word,
    commutator_words,
    evaluate_word,
    gaschutz_lift,
    parse_word,
)
from .structure import (  # noqa: E402
    StructureReport,
    is_in_Y,
    min_generators,
    normal_subgroups,
    semisimple_factors,
    split_star_trivial,
    star_series,
    star_subgroup,
)
from .gmodule import (  # noqa: E402
    GModule,
    Submodule,
    augmentation_submodule,
    is_perfect_module,
    solve_commutator_decomposition,
    submodule_generated,
)
from .covering import (  # noqa: E402
    CoveringCertificate,
    SemisimpleCover,
    covering_number,
    decompose_conjugate_product,
    pick_small_centralizer_gen,
    product_set,
    semisimple_cover,
)
from .construction import (  # noqa: E402
    ConstructionCertificate,
    construct,
)
from .certificates import (  # noqa: E402
    serialize_certificate,
    verify_certificate,
    write_certificate,
    load_certificate,
)
