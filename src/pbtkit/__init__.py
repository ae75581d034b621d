"""pbtkit: simulation and verification toolkit for port-based teleportation.

The package simulates arbitrary port-based teleportation protocols exactly,
verifies their structural claims (input independence of success branches,
the port-marginal mixture identity, the twirled construction that forces
maximally mixed port marginals, the no-signaling message chain), and
numerically maximizes the success probability over measurements, testing it
against the N/(4^n + N - 1) ceiling.
"""

__version__ = "0.1.0"

from .engine import (  # noqa: F401
    PbtProtocol,
    bell_pbt_protocol,
    load_protocol,
    measure,
    port_marginals,
    protocol_from_dict,
    protocol_to_dict,
    save_protocol,
    standard_resource,
    teleport_report,
    verify_eq3_and_lemma,
    verify_port_decomposition,
)
from .errors import (  # noqa: F401
    ChainPreconditionError,
    LayoutError,
    ProtocolError,
    SampleCountError,
    ToolkitError,
    UnitarityError,
)
from .nocloning import (  # noqa: F401
    PointerOperation,
    decompose_by_pointer,
    load_pointer,
    pointer_form,
    pointer_from_dict,
    pointer_to_dict,
    save_pointer,
    verify_theorem,
)
from .optima import p_fixed  # noqa: F401
from .optimizer import (  # noqa: F401
    JointPbtSdp,
    PbtSdp,
    SolveResult,
    build_joint_sdp,
    build_sdp,
    certify,
    extract_protocol,
    solve,
    solve_joint,
)
from .pauli import (  # noqa: F401
    PauliIndex,
    haar_states,
    pauli_element,
    sample_haar_state,
    twirl,
)
from .primed import (  # noqa: F401
    PrimedProtocol,
    build_primed,
    commutation_witness,
    primed_from_dict,
    primed_port_marginals,
    primed_to_dict,
    run_primed,
    verify_eq5,
    verify_failure_marginal_twirl,
)
from .report import AuditReport, CheckResult  # noqa: F401
from .signaling import (  # noqa: F401
    ChainBranches,
    SignalingReport,
    analyze_chain,
    bound,
    compute_chain_exact,
    f_of_R,
    monte_carlo_check,
    run_chain_batch,
    sdc_encode,
)
from .tensor import (  # noqa: F401
    HermitianMatrix,
    StateVector,
    SystemLayout,
    apply_on_subsystems,
    basis_state,
    maximally_entangled,
    permute_subsystems,
    reduced_density,
    schmidt_decompose,
    tensor_product,
)
