"""Built-in protocol numbers and the built-in AVP dictionary.

Everything the rest of the testbed pins against lives here: command
codes, result codes, AVP codes, and the built-in AVP dictionary, a
literal keyed by the AVP code constants (no entry has a vendor).
"""

from __future__ import annotations

from .codec import DictEntry, Dictionary

# Base-protocol command codes (capabilities / watchdog / disconnect).
CMD_CAPABILITIES_EXCHANGE = 257
CMD_DEVICE_WATCHDOG = 280
CMD_DISCONNECT_PEER = 282

# Application command codes served by the simulated elements.
CMD_ECHO = 700
CMD_PROFILE_QUERY = 701
CMD_LOCATION_UPDATE = 702
CMD_POLICY_INSTALL = 703

# Result codes carried in the result-code AVP of answers.
RESULT_SUCCESS = 2001
RESULT_COMMAND_UNSUPPORTED = 3001
RESULT_UNSUPPORTED_MANDATORY_AVP = 5001
RESULT_MISSING_AVP = 5005
RESULT_INVALID_AVP_LENGTH = 5014
RESULT_USER_UNKNOWN = 5030
RESULT_DUPLICATE_RULE = 5100

# AVP codes.
AVP_AUTH_APPLICATION_ID = 258
AVP_ORIGIN_HOST = 264
AVP_RESULT_CODE = 268
AVP_DISCONNECT_CAUSE = 273
AVP_SUBSCRIBER_ID = 2000
AVP_LOCATION = 2001
AVP_PROFILE_ATTRIBUTE = 2002
AVP_RULE_ID = 2003
AVP_QOS_CLASS = 2004
AVP_ECHO_PAYLOAD = 2005

# Every element validates against this value, keyed by (code, vendor id).
BUILTIN_DICTIONARY = Dictionary(
    {
        (AVP_AUTH_APPLICATION_ID, None): DictEntry("auth-application-id", "unsigned32"),
        (AVP_ORIGIN_HOST, None): DictEntry("origin-host", "utf8-text"),
        (AVP_RESULT_CODE, None): DictEntry("result-code", "unsigned32"),
        (AVP_DISCONNECT_CAUSE, None): DictEntry("disconnect-cause", "unsigned32"),
        (AVP_SUBSCRIBER_ID, None): DictEntry("subscriber-id", "utf8-text"),
        (AVP_LOCATION, None): DictEntry("location", "utf8-text"),
        (AVP_PROFILE_ATTRIBUTE, None): DictEntry("profile-attribute", "utf8-text"),
        (AVP_RULE_ID, None): DictEntry("rule-id", "utf8-text"),
        (AVP_QOS_CLASS, None): DictEntry("qos-class", "unsigned32"),
        (AVP_ECHO_PAYLOAD, None): DictEntry("echo-payload", "octet-string"),
    }
)


RESULT_NAMES = {
    RESULT_SUCCESS: "success",
    RESULT_COMMAND_UNSUPPORTED: "command-unsupported",
    RESULT_UNSUPPORTED_MANDATORY_AVP: "unsupported-mandatory-avp",
    RESULT_MISSING_AVP: "missing-avp",
    RESULT_INVALID_AVP_LENGTH: "invalid-avp-length",
    RESULT_USER_UNKNOWN: "user-unknown",
    RESULT_DUPLICATE_RULE: "duplicate-rule",
}

COMMAND_NAMES = {
    CMD_CAPABILITIES_EXCHANGE: "capabilities-exchange",
    CMD_DEVICE_WATCHDOG: "device-watchdog",
    CMD_DISCONNECT_PEER: "disconnect-peer",
    CMD_ECHO: "echo",
    CMD_PROFILE_QUERY: "profile-query",
    CMD_LOCATION_UPDATE: "location-update",
    CMD_POLICY_INSTALL: "policy-install",
}
