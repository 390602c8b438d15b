"""Catalog entries each workload builds, shared by the workloads and the
set-up probe.

Importing this module imports nothing from proxgap or numpy, so a fresh
interpreter can time ``import proxgap`` by calling :func:`build`.
"""

# The six entries of the chain-queries and sweeps workloads.  The rotator
# is an operator only, so chain-queries runs just the duality check on it.
CHAIN_SPECS = (
    "energy:dim=2",
    "energy:dim=64",
    "subspace:dim=3:basis=1,0,0;0,1,1",
    "burg",
    "shannon",
    "rotator",
)

FUNCTION_SPECS = CHAIN_SPECS[:-1]

# numeric_conjugate, behind ``oracle-compare``, supports dim <= 2 only.
ORACLE_SPECS = ("energy:dim=2", "burg", "shannon")

WORKLOAD_NAMES = ("chain-queries", "sweeps", "verify", "cli")


def build(workload):
    """Build the entries ``workload`` uses, the way its set-up does.

    Returns a dict: ``entries`` maps each spec to (function or None,
    operator); ``pgm`` is the (smooth, prox) pair of the PGM demo.
    """
    if workload == "verify":
        from proxgap import verify

        return {"verify": (verify.function_entries(), verify.operator_entries())}
    if workload == "cli":
        import proxgap.cli  # noqa: F401  (cold start of the command line)
    from proxgap import catalog

    entries = {}
    for spec in CHAIN_SPECS:
        entry = catalog.parse_spec(spec)
        function = None if isinstance(entry, catalog.Operator) else entry
        entries[spec] = (function, catalog.as_operator(entry))
    built = {"entries": entries}
    if workload == "sweeps":
        built["pgm"] = (catalog.make_energy(2), catalog.make_subspace_indicator([[1.0, 0.0]]))
    return built
