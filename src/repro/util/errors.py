"""Exception hierarchy for the repro library.

Every exception raised intentionally by this package derives from
:class:`ReproError` so callers can catch library failures without also
swallowing programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid configuration value or combination was supplied."""


class CommunicationError(ReproError):
    """A communication call was used incorrectly (size/type mismatch...)."""


class DeadlockError(CommunicationError):
    """A blocking communication call timed out.

    The simulated MPI layer bounds every blocking wait so that an
    incorrectly matched Send/Recv pair surfaces as a test failure instead
    of a hung process.
    """


class RankAbortedError(CommunicationError):
    """Another rank in the SPMD program raised; this rank was torn down."""


class RunDivergedError(ReproError):
    """A run's state stopped being physically sound: a non-finite ``z``
    or ``w``, or an interface amplitude past the config's bound.

    Raised right after the step that produced it — by the rank that
    sees it, or by a fleet for that one member — so a campaign records
    the run *failed* instead of memoizing it.
    """

    def __init__(self, step: int, field: str, rank: int, detail: str) -> None:
        super().__init__(step, field, rank, detail)
        self.step, self.field, self.rank, self.detail = step, field, rank, detail

    def __str__(self) -> str:
        return (
            f"run diverged at step {self.step}: {self.field} {self.detail} "
            f"(rank {self.rank})"
        )


class RunBudgetExceededError(ReproError):
    """A campaign run overran its wall-clock budget.

    Raised inside the run (checked between timesteps) so the executor
    records the run as *failed* and moves on; distinct from
    :class:`DeadlockError`, which bounds a single blocking collective —
    a rank that computes slowly while its peers wait is over budget,
    not deadlocked.
    """
