"""Unit tests for the JSON-lines admission protocol."""

import pytest

from repro.serve.protocol import (
    QueryError,
    error_response,
    ok_response,
    parse_request,
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


class TestFieldValidation:
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
