"""Built-in protocol numbers and the built-in AVP dictionary.

Everything the rest of the testbed pins against lives here: command
codes, result codes, AVP codes, and the built-in AVP dictionary. The
dictionary is written as line-oriented text, one AVP entry per line:

    code vendor_id name data_format mandatory_expected

with vendor_id 0 meaning "no vendor" and `#` starting a comment.
"""

from __future__ import annotations

from .codec import DATA_FORMATS, DictEntry, Dictionary

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

BUILTIN_DICTIONARY_TEXT = """\
# code vendor_id name data_format mandatory_expected
258  0  auth-application-id  unsigned32    true
264  0  origin-host          utf8-text     true
268  0  result-code          unsigned32    true
273  0  disconnect-cause     unsigned32    true
2000 0  subscriber-id        utf8-text     true
2001 0  location             utf8-text     true
2002 0  profile-attribute    utf8-text     false
2003 0  rule-id              utf8-text     true
2004 0  qos-class            unsigned32    true
2005 0  echo-payload         octet-string  false
"""


class DictionaryError(ValueError):
    """Malformed dictionary text; message carries the line number."""


def parse_dictionary(text: str, source: str = "<builtin>") -> Dictionary:
    entries: dict[tuple[int, int | None], DictEntry] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 5:
            raise DictionaryError(f"{source}:{lineno}: expected 5 fields, got {len(fields)}")
        code_s, vendor_s, name, fmt, mand_s = fields
        try:
            code = int(code_s)
            vendor = int(vendor_s)
        except ValueError as exc:
            raise DictionaryError(f"{source}:{lineno}: non-integer code field") from exc
        if fmt not in DATA_FORMATS:
            raise DictionaryError(f"{source}:{lineno}: unknown data format {fmt!r}")
        if mand_s not in ("true", "false"):
            raise DictionaryError(f"{source}:{lineno}: mandatory flag must be true/false")
        key = (code, None if vendor == 0 else vendor)
        if key in entries:
            raise DictionaryError(f"{source}:{lineno}: duplicate entry for {key}")
        entries[key] = DictEntry(name=name, data_format=fmt, mandatory_expected=mand_s == "true")
    return Dictionary(entries=entries)


# Parsed once, at import: every element validates against this value.
BUILTIN_DICTIONARY = parse_dictionary(BUILTIN_DICTIONARY_TEXT)


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
