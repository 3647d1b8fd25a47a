"""Exact face combinatorics of freehedra.

Forest-tree-forest face labels, {0,1,2} vertex coordinates, generic
directed face complexes with chain/excess machinery and a shortness
certifier, the cube/simplex/associahedron control families, and the
truncated Hilbert data of the associated chain operad.
"""

from .complexes import (
    AuditReport,
    Chain,
    DirectedReport,
    Face,
    FaceComplex,
    ShortnessCertificate,
    SupdimReport,
    audit_connected_chains,
    check_supdim,
    excess,
    freehedron_D,
    is_chain,
    is_short,
    iter_chains,
    least_violating_chain,
)
from .errors import EncodingError, LocatorError, ResourceLimitError
from .families import (
    associahedron_complex,
    cube_complex,
    family_complex,
    freehedron_complex,
    simplex_complex,
)
from .operad import (
    HilbertImage,
    hilbert_image,
    image_rows,
    selfduality_residual,
)
from .triples import (
    SpaceLocator,
    Triple,
    boundary,
    closure,
    count_faces,
    dimension,
    enumerate_faces,
    leaf_count,
    merge,
    move_left,
    move_right,
    push_apart,
    space_count,
)
from .words import (
    label_of,
    max_vertex,
    min_vertex,
    validate_word,
    word_of,
)

__version__ = "0.1.0"
