"""The HTTP front end, exercised over real sockets.

One asyncio server runs on a background loop thread per fixture; the
stdlib :class:`ServiceClient` talks to it exactly as ``repro submit``
and the CI smoke job do.  Pins the admission, dedupe, long-poll,
streaming and error surfaces — and the acceptance guarantee that a
*served* result digests identically to the classic serial runner.
"""

import asyncio
import socket
import threading

import pytest

from repro.core.digest import result_digest
from repro.engine import JobRequest, ParallelEngine
from repro.harness.experiment import ExperimentRunner, ExperimentSettings
from repro.service.api import MAX_HEAD_BYTES, ServiceAPI
from repro.service.client import ServiceClient, ServiceError
from repro.service.core import SimulationService

SCALE = 0.1


class ServedFixture:
    """A live API server on a loop thread, plus a client aimed at it."""

    def __init__(self, service: SimulationService,
                 max_pending: int = 64) -> None:
        self.service = service
        self.api = ServiceAPI(service, port=0, max_pending=max_pending)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        port = asyncio.run_coroutine_threadsafe(
            self.api.start(), self.loop).result(10)
        self.client = ServiceClient("127.0.0.1", port, timeout=30.0)

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.api.stop(drain_timeout=30.0), self.loop).result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()
        self.service.close()


@pytest.fixture
def served(tmp_path):
    engine = ParallelEngine(jobs=1, cache_dir=str(tmp_path / "cache"))
    fixture = ServedFixture(SimulationService(engine=engine))
    yield fixture
    fixture.close()


def job_doc(**overrides):
    doc = {"benchmark": "bfs", "technique": "warped_gates",
           "scale": SCALE}
    doc.update(overrides)
    return doc


class TestEndpoints:
    def test_health(self, served):
        health = served.client.health()
        assert health["ok"] is True and health["draining"] is False

    def test_submit_wait_result_roundtrip(self, served):
        accepted = served.client.submit(job_doc())
        assert accepted["state"] in ("queued", "running", "ok")
        assert accepted["deduped"] is False
        result = served.client.wait(accepted["job_id"], timeout=120)
        assert result["state"] == "ok"
        assert result["cycles"] > 0
        assert result["manifest"]["benchmark"] == "bfs"
        assert len(result["digest"]) == 64
        listed = served.client.jobs()
        assert [j["job_id"] for j in listed] == [accepted["job_id"]]

    def test_job_id_is_the_run_key(self, served):
        accepted = served.client.submit(job_doc())
        key = JobRequest.from_dict(job_doc()).key(True)  # engine default
        assert accepted["job_id"] == key
        result = served.client.wait(key, timeout=120)
        assert result["manifest"]["run_key"] == key

    def test_served_digest_matches_serial_runner(self, served):
        """Acceptance: HTTP-served digest == classic serial digest."""
        accepted = served.client.submit(job_doc())
        result = served.client.wait(accepted["job_id"], timeout=120)
        runner = ExperimentRunner(ExperimentSettings(
            scale=SCALE, benchmarks=("bfs",)))
        serial = runner.run("bfs", "warped_gates")
        assert result["digest"] == result_digest(serial)

    def test_duplicate_submit_dedupes_onto_same_job(self, served):
        first = served.client.submit(job_doc())
        second = served.client.submit(job_doc())
        assert second["job_id"] == first["job_id"]
        assert second["deduped"] is True
        assert second["submissions"] == 2

    def test_stream_replays_lifecycle(self, served):
        accepted = served.client.submit(job_doc())
        served.client.wait(accepted["job_id"], timeout=120)
        records = list(served.client.stream(accepted["job_id"]))
        states = [r["state"] for r in records
                  if r.get("record") == "state"]
        assert states[0] == "queued" and states[-1] == "ok"
        assert records[-1]["record"] == "done"

    def test_disconnect_mid_stream_does_not_cancel_job(self, served):
        """A lost stream consumer never perturbs the running job."""
        accepted = served.client.submit(job_doc())
        stream = served.client.stream(accepted["job_id"])
        first = next(stream)  # connected and receiving...
        assert first["record"] in ("state", "done")
        stream.close()  # ...then the client drops the connection
        result = served.client.wait(accepted["job_id"], timeout=120)
        assert result["state"] == "ok" and result["cycles"] > 0


class TestErrors:
    def test_unknown_job_is_404(self, served):
        with pytest.raises(ServiceError) as excinfo:
            served.client.status("feedfacecafe")
        assert excinfo.value.status == 404

    def test_unsettled_result_without_wait_is_404_shaped(self, served):
        # An unknown id and a known-but-unsettled job both read as
        # not-ready; the client's wait() treats them alike.
        with pytest.raises(ServiceError):
            served.client.result("feedfacecafe")

    def test_invalid_document_is_400_with_reason(self, served):
        with pytest.raises(ServiceError) as excinfo:
            served.client.submit({"benchmark": "bfs"})
        assert excinfo.value.status == 400
        assert "exactly one of" in excinfo.value.message
        with pytest.raises(ServiceError) as excinfo:
            served.client.submit({"benchmark": "bsf",
                                  "technique": "conv_pg"})
        assert excinfo.value.status == 400
        assert "did you mean" in excinfo.value.message

    @pytest.mark.parametrize("scale", [0, -1, float("nan"), float("inf")])
    def test_bad_scale_is_400_naming_scale(self, served, scale):
        with pytest.raises(ServiceError) as excinfo:
            served.client.submit(job_doc(scale=scale))
        assert excinfo.value.status == 400
        assert "'scale'" in excinfo.value.message

    def _raw_status(self, served, head: str) -> str:
        """Send one raw request head; return the response status code."""
        with socket.create_connection(
                (served.client.host, served.client.port), timeout=30) as conn:
            conn.sendall(head.encode())
            return conn.makefile("rb").readline().decode().split()[1]

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_400(self, served, length):
        assert self._raw_status(
            served, f"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
                    f"Content-Length: {length}\r\n\r\n") == "400"

    def test_oversized_head_is_413(self, served):
        padding = "a" * (MAX_HEAD_BYTES + 1000)
        assert self._raw_status(
            served, f"GET /healthz HTTP/1.1\r\nX-Pad: {padding}"
                    "\r\n\r\n") == "413"

    @pytest.mark.parametrize("wait", ["abc", "nan", "inf", "-1", "1e12"])
    def test_bad_wait_is_400(self, served, wait):
        job_id = served.client.submit(job_doc())["job_id"]
        with pytest.raises(ServiceError) as excinfo:
            served.client._call("GET",
                                f"/v1/jobs/{job_id}/result?wait={wait}")
        assert excinfo.value.status == 400
        assert "'wait'" in excinfo.value.message

    def test_unknown_endpoint_is_404(self, served):
        with pytest.raises(ServiceError) as excinfo:
            served.client._call("GET", "/v2/nope")
        assert excinfo.value.status == 404

    def test_admission_cap_returns_429(self, tmp_path):
        engine = ParallelEngine(jobs=1, cache_dir=str(tmp_path / "cache"))
        fixture = ServedFixture(SimulationService(engine=engine),
                                max_pending=0)
        try:
            with pytest.raises(ServiceError) as excinfo:
                fixture.client.submit(job_doc())
            assert excinfo.value.status == 429
        finally:
            fixture.close()
