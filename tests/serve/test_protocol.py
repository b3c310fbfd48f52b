"""Unit tests for the JSON-lines admission protocol."""

import pytest

from repro.serve.protocol import (
    MAX_CORES,
    MAX_LINE_BYTES,
    QueryError,
    error_response,
    ok_response,
    parse_request,
    require_int,
    require_range,
)


class TestParseRequest:
    def test_valid_ops_parse(self):
        for op in ("ping", "stats", "design", "admit", "shutdown"):
            assert parse_request(f'{{"op": "{op}"}}')["op"] == op

    def test_id_is_preserved(self):
        assert parse_request('{"op": "ping", "id": 7}')["id"] == 7
        assert parse_request('{"op": "ping", "id": "abc"}')["id"] == "abc"

    def test_invalid_json_rejected(self):
        with pytest.raises(QueryError, match="not valid JSON"):
            parse_request('{"op": "ping"')

    def test_non_object_rejected(self):
        with pytest.raises(QueryError, match="JSON object"):
            parse_request('["op", "ping"]')

    def test_unknown_op_rejected(self):
        with pytest.raises(QueryError, match="unknown op"):
            parse_request('{"op": "frobnicate"}')
        with pytest.raises(QueryError, match="unknown op"):
            parse_request("{}")

    def test_timeout_must_be_a_positive_number(self):
        assert parse_request('{"op": "ping", "timeout": 2.5}')["timeout"] == 2.5
        # json.loads parses NaN and Infinity, and NaN once passed as a
        # budget (nan <= 0 is False) that expired every query at once.
        for bad in ('"2"', "0", "-1", "true", "NaN", "Infinity", "1e999",
                    "1" + "0" * 400):
            with pytest.raises(QueryError, match="timeout"):
                parse_request(f'{{"op": "ping", "timeout": {bad}}}')


    def test_line_limit_counts_utf8_bytes(self):
        """A line may hold MAX_LINE_BYTES bytes, the daemon's read limit;
        one more is refused, also when the excess is a multi-byte
        character."""
        head = '{"op": "ping", "pad": "'
        fill = MAX_LINE_BYTES - len(head) - 2
        assert parse_request(head + "x" * fill + '"}')["op"] == "ping"
        with pytest.raises(QueryError, match="exceeds 65536 bytes"):
            parse_request(head + "x" * (fill + 1) + '"}')
        with pytest.raises(QueryError, match="exceeds 65536 bytes"):
            parse_request(head + "x" * (fill - 1) + 'é"}')

    def test_deep_nesting_is_a_query_error(self):
        """``json.loads`` raises RecursionError, not a decode error, on a
        short line nesting thousands of arrays."""
        with pytest.raises(QueryError, match="nests too deeply"):
            parse_request("[" * 5000 + "]" * 5000)


class TestFieldValidation:
    def test_integer_bounds_are_inclusive(self):
        request = {"num_cores": MAX_CORES}
        assert require_int(request, "num_cores", maximum=MAX_CORES) == 64
        with pytest.raises(QueryError, match="must be <= 64"):
            require_int({"num_cores": MAX_CORES + 1}, "num_cores", maximum=MAX_CORES)

    @pytest.mark.parametrize(
        "pair", [[0.05, float("inf")], [float("nan"), 0.2], [0.05, 10**400]]
    )
    def test_range_bounds_must_be_finite(self, pair):
        with pytest.raises(QueryError, match="must be a finite number"):
            require_range({"normalized_range": pair}, "normalized_range")


class TestEnvelopes:
    def test_ok_response_shape(self):
        assert ok_response(3, {"pong": True}) == {
            "id": 3,
            "ok": True,
            "result": {"pong": True},
        }

    def test_error_response_shape(self):
        response = error_response(None, "timeout", "too slow")
        assert response["ok"] is False
        assert response["id"] is None
        assert response["error"] == {"type": "timeout", "message": "too slow"}
