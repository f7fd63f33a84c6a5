"""Built-in registry pins."""

from diamlab import dictionary as dct
from diamlab.dictionary import BUILTIN_DICTIONARY


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
        assert d.lookup(dct.AVP_RESULT_CODE).data_format == "unsigned32"
        assert d.lookup(dct.AVP_LOCATION).name == "location"
        assert d.lookup(424242) is None

    def test_name_lookup(self):
        d = BUILTIN_DICTIONARY
        assert d.code_for_name("location") == dct.AVP_LOCATION
        assert d.code_for_name("nope") is None

    def test_every_avp_code_has_one_entry(self):
        codes = [value for name, value in vars(dct).items() if name.startswith("AVP_")]
        assert sorted(BUILTIN_DICTIONARY.entries) == sorted((code, None) for code in codes)
