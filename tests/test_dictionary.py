"""Dictionary text format and built-in registry pins."""

import pytest

from diamlab import dictionary as dct
from diamlab.dictionary import (
    BUILTIN_DICTIONARY,
    DictionaryError,
    parse_dictionary,
)


class TestBuiltin:
    def test_command_code_pins(self):
        assert dct.CMD_CAPABILITIES_EXCHANGE == 257
        assert dct.CMD_DEVICE_WATCHDOG == 280
        assert dct.CMD_DISCONNECT_PEER == 282
        assert dct.CMD_ECHO == 700

    def test_result_code_pins(self):
        assert dct.RESULT_SUCCESS == 2001
        assert dct.RESULT_COMMAND_UNSUPPORTED == 3001
        assert dct.RESULT_UNSUPPORTED_MANDATORY_AVP == 5001
        assert dct.RESULT_MISSING_AVP == 5005
        assert dct.RESULT_INVALID_AVP_LENGTH == 5014
        assert dct.RESULT_USER_UNKNOWN == 5030
        assert dct.RESULT_DUPLICATE_RULE == 5100

    def test_builtin_entries(self):
        d = BUILTIN_DICTIONARY
        origin = d.lookup(dct.AVP_ORIGIN_HOST)
        assert origin.name == "origin-host"
        assert origin.data_format == "utf8-text"
        assert origin.mandatory_expected
        assert d.lookup(dct.AVP_RESULT_CODE).data_format == "unsigned32"
        assert d.lookup(dct.AVP_LOCATION).name == "location"
        assert d.lookup(424242) is None

    def test_name_lookup(self):
        d = BUILTIN_DICTIONARY
        assert d.code_for_name("location") == dct.AVP_LOCATION
        assert d.code_for_name("nope") is None


class TestParser:
    def test_vendor_zero_means_no_vendor(self):
        d = parse_dictionary("7 0 thing unsigned32 true\n")
        assert d.lookup(7, None) is not None
        assert d.lookup(7, 0) is None

    def test_vendor_scoped_entry(self):
        d = parse_dictionary("7 10415 thing unsigned32 false\n")
        assert d.lookup(7, 10415).name == "thing"
        assert d.lookup(7, None) is None

    def test_comments_and_blank_lines(self):
        d = parse_dictionary("# heading\n\n7 0 thing unsigned32 true # tail\n")
        assert d.lookup(7) is not None

    def test_field_count_error_names_line(self):
        with pytest.raises(DictionaryError, match=r"<builtin>:2"):
            parse_dictionary("7 0 thing unsigned32 true\n8 0 broken\n")

    def test_bad_format_rejected(self):
        with pytest.raises(DictionaryError, match="unknown data format"):
            parse_dictionary("7 0 thing float32 true\n")

    def test_bad_mandatory_flag(self):
        with pytest.raises(DictionaryError, match="true/false"):
            parse_dictionary("7 0 thing unsigned32 maybe\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(DictionaryError, match="duplicate"):
            parse_dictionary("7 0 a unsigned32 true\n7 0 b unsigned32 true\n")

    def test_non_integer_code(self):
        with pytest.raises(DictionaryError, match="non-integer"):
            parse_dictionary("seven 0 a unsigned32 true\n")
