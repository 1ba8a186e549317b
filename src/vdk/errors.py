"""Error taxonomy shared across the library.

Every failure mode that callers are expected to branch on gets its own
class; messages name the offending words so CLI users can see what went
wrong without a stack trace.
"""


class VdkError(Exception):
    """Base class for all domain errors raised by this package."""


class MismatchedAlphabet(VdkError):
    """Operands live over different alphabets (d, k)."""


class ArityMismatch(VdkError):
    """Operation requires a specific arity, e.g. k = d for embeddings."""


class OverlappingDomain(VdkError):
    """Two domain words share a cylinder (one is a prefix of the other)."""


class IncompleteDomain(VdkError):
    """Domain words do not cover the whole space."""


class OverlappingRange(VdkError):
    """Two range words share a cylinder."""


class IncompleteRange(VdkError):
    """Range words do not cover the whole space."""


class NotFull(VdkError):
    """Bisection is not full, so it has no table completion."""


class OverlappingBoxes(VdkError):
    """Two boxes of a product table intersect."""


class IncompleteBoxes(VdkError):
    """Boxes of a product table do not cover the product space."""


class NotRelated(VdkError):
    """Points are not tail equivalent, or a claimed witness is invalid."""


class TransportImpossible(VdkError):
    """No bijection can carry one cylinder onto the other.

    Happens only for k = 1 when exactly one of the two words is the bare
    root: the root cylinder is then the whole space and a bijection
    cannot map it onto a proper subcylinder (or vice versa).
    """


class NotSymmetric(VdkError):
    """Generating set is not symmetric (inverse-closed, identity-free)."""


class CertificateInvalid(VdkError):
    """A ping-pong certificate failed verification."""


class DisjointnessViolation(CertificateInvalid):
    """Attractor clopens are not pairwise disjoint (or one is empty)."""


class InclusionViolation(CertificateInvalid):
    """A ping-pong inclusion g(X minus P_g^-) in P_g fails."""


class InconclusiveParameters(VdkError):
    """Exact integral does not exceed the norm bound; parameters too weak.

    This signals that the chosen support word is too short for the
    sufficient criterion, not a defect in the inputs.  The report that
    was computed rides along as `report`.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
