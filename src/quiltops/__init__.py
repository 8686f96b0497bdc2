"""Exact computations in the quilt operads and their Hochschild action.

The package is organized bottom-up:

  trees, words, quilts    canonical combinatorics and enumeration
  formal, rings           exact linear combinations over basis keys
  extensions              faces, boundaries, extensions, composition
  homology                chain complexes and exact ranks by arity
  mquilt                  the marked operad, its normal form, homotopies
  linfty                  maximal quilts and the strong homotopy relations
  diagrams, cochains      diagrams of algebras and the coloring action
  render                  grid diagrams for quilts, both directions
  cli                     command line drivers and verification suites
"""

from .rings import ZZ, QQ, GF, GF2, parse_ring
from .formal import FormalSum, combine, ring_map
from .trees import Tree, enumerate_trees, parse_tree
from .words import Word, enumerate_words, parse_word, word_statistics
from .quilts import (Quilt, QuiltAxiomViolated, validate_quilt, parse_quilt,
                     enumerate_quilts, identity_quilt)
from .extensions import (face, face_signs, boundary, boundary_sum,
                         tree_extensions, word_extensions, extension_sign,
                         compose, compose_sums)
from .homology import build_complex, homology_ranks, project_to_brace
from .mquilt import (MQuilt, from_quilt, m_element, delta_element, normalize,
                     mq_compose, mark, mq_boundary, boundary_prime, mq_permute,
                     ad_delta, gerstenhaber_element, verify_identity,
                     IDENTITY_NAMES)
from .linfty import (maximal_quilts, sgn_K, L0, L1, L_full, P0, P_full,
                     linfty_residual_quilt, linfty_residual_mquilt,
                     linfty_residual_coinvariant)
from .diagrams import (FiniteCategory, DiagramOfAlgebras, DiagramError,
                       load_diagram, parse_diagram, format_diagram,
                       category_two_diagram)
from .cochains import (Cochain, m_hat, act, delta_S, delta_H, delta_total,
                       cup, circle_bar, bracket, subcomplex_check,
                       mc_residual, deformed_diagram, skew_check, squaring,
                       NerveDepthExceeded)
from .render import QuiltGrid, render_ascii, render_svg, read_diagram
