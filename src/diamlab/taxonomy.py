"""Three-axis classification scheme for findings.

Every finding lands in exactly one cell of origin x technique x impact.
The spoofing technique and the internal/compromised-element origins are
part of the scheme for completeness; no attack module currently
produces them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Origin(Enum):
    EXTERNAL_INTERCONNECT = "external_interconnect"
    INTERNAL = "internal"
    COMPROMISED_ELEMENT = "compromised_element"


class Technique(Enum):
    INTERCEPTION = "interception"
    FLOODING = "flooding"
    MALFORMED_MESSAGE = "malformed_message"
    SPOOFING = "spoofing"


class Impact(Enum):
    CONFIDENTIALITY = "confidentiality"
    INTEGRITY = "integrity"
    AVAILABILITY = "availability"


@dataclass(frozen=True)
class TaxonomyLabel:
    origin: Origin
    technique: Technique
    impact: Impact
