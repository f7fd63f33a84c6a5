"""diamlab: a desk-scale Diameter signaling security testbed.

Wire codec, peer state machine, deterministic simulated core (target
server, HSS, MME, PCRF), attack engine (flood, intercept, fuzz), and a
taxonomy-labeled findings report behind one CLI.
"""

__version__ = "0.1.0"

from .codec import (  # noqa: F401
    Avp,
    Dictionary,
    Message,
    MessageHeader,
    ParseError,
    decode_message,
    encode_message,
    validate_message,
)
from .config import CampaignConfig, load_config  # noqa: F401
from .campaign import Report, render_report, run_campaign  # noqa: F401
