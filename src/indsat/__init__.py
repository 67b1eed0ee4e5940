"""Graph saturation toolkit: classification certificates, finite prefixes of
the saturating constructions, and desk-scale verification."""

from .classifier import (Certificate, SweepReport, classify, replay_certificate,
                         special_table, structure_check_12, sweep)
from .cores import (ONE_ONE, THREE, THREE_STAR, TWO, TWO_EDGE, TWO_NONEDGE,
                    CoreKind, core, core_fixed_point_check, kl_core)
from .constructions import PrefixState, blowup_graph, fix_pair, schedule_fixes
from .gatekeeper import (GatekeeperResult, blowup_mode, check_gatekeeper,
                         has_fixing_operation)
from .graphs import (Graph, Graph6Error, complement, emit_graph6, enumerate_2cuts,
                     find_induced, is_isomorphic, is_k_connected, parse_graph6,
                     twins)
from .oracles import OracleKind, compare_to_pi, oracle_adjacent, oracle_window
from .recognizers import (PermutationWitness, close_to_permutation,
                          classify_trivial, forest_unique_max, is_bull_or_p4,
                          is_permutation_graph, match_k2p_k11p)
from .verifier import (induced_saturated, is_free, pair_fixed_check,
                       replay_construction_witnesses)

__version__ = "0.1.0"
