"""Workload ``check-local``: the application's license check.

One ``SgxMachine`` runs SL-Local + SL-Manager against an in-process
SL-Remote (``sl+inproc://``).  The application calls
``SlManager.check`` in a closed loop — it waits for every answer —
over a few hundred licenses with zipf popularity, ten grants per local
attestation (the paper's batching), and every ``COMMIT_EVERY`` checks
the runner seals all but the ``KEEP_RESIDENT`` hottest leases out of
the enclave (``SlLocal.commit_cold_leases``, as in the Table 6
experiment), so the cold tail is unsealed again when it is touched.

The path loads ``sl_manager``, ``sl_local``, ``lease_tree``,
``tokens``, ``crypto`` and the ``sgx`` cost model, and bypasses the
codec, sockets, the WAL and replication.
"""

from __future__ import annotations

import random
import statistics
import time
from array import array
from typing import Dict, List

import numpy

from common import FULL, Scale, ZipfPicker, stream_seed
from layers import calls, crypto_layers, self_us, total_ns
from tracing import LOCAL_TARGETS, Tracer

LICENSES = 300
ZIPF_S = 1.1
TOKENS_PER_ATTESTATION = 10
POOL = 10**9
COMMIT_EVERY = 10_000
KEEP_RESIDENT = 32
#: The sgx counters are read over this fixed prefix of checks, so they
#: depend on the seed alone, never on how fast the run went.
FIXED_PREFIX = 20_000


class Deployment:
    """One client machine, its SL-Local/SL-Manager and the remote."""

    def __init__(self, seed: int) -> None:
        from repro.core.sl_local import SlLocal
        from repro.core.sl_manager import SlManager
        from repro.core.sl_remote import SlRemote
        from repro.crypto.keys import KeyGenerator
        from repro.net.endpoint import connect
        from repro.net.network import NetworkConditions, SimulatedLink
        from repro.sgx import RemoteAttestationService, SgxMachine
        from repro.sim.rng import DeterministicRng

        order = random.Random(stream_seed(seed, "check-local:licenses"))
        # Popularity rank -> license id: which license is hot is an input.
        self.license_ids = [f"lic-{index:03d}" for index in range(LICENSES)]
        order.shuffle(self.license_ids)
        self.machine = SgxMachine("bench-client")
        ras = RemoteAttestationService()
        ras.register_platform(self.machine.platform_secret)
        self.remote = SlRemote(ras)
        blobs = {lid: self.remote.issue_license(lid, POOL).license_blob()
                 for lid in self.license_ids}
        endpoint = connect(
            "sl+inproc://", remote=self.remote,
            link=SimulatedLink(NetworkConditions(), DeterministicRng(seed)),
        )
        self.sl_local = SlLocal(
            self.machine, endpoint, KeyGenerator(DeterministicRng(seed)),
            tokens_per_attestation=TOKENS_PER_ATTESTATION,
        )
        self.sl_local.init()
        self.manager = SlManager("bench-app", self.machine, self.sl_local,
                                 tokens_per_attestation=TOKENS_PER_ATTESTATION)
        self.tokens: List = []
        sl_local = self.sl_local

        def capture(request):
            # Looked up on the class at call time, so a traced run's
            # wrapper is the one that runs.
            response = type(sl_local).handle_attest(sl_local, request)
            if response.token is not None:
                self.tokens.append(response.token)
            return response

        sl_local.handle_attest = capture
        for lid in self.license_ids:
            self.manager.load_license(lid, blobs[lid])
        # Warm every lease once, hottest first: lease ids follow first
        # touch, so the hot set holds the lowest ids and stays resident.
        for lid in self.license_ids:
            if not self.manager.check(lid):
                raise RuntimeError(f"warm-up check of {lid} was denied")
        self.sl_local.commit_cold_leases(KEEP_RESIDENT)
        self.tokens.clear()

    def verify_tokens(self) -> int:
        """Issued tokens that fail their MAC or grant more than issued."""
        bad = 0
        for token in self.tokens:
            if (not self.sl_local.verify_token(token)
                    or token.grants > token.initial_grants):
                bad += 1
        return bad


def _setup(seed: int, setups: int):
    timings, deployment = [], None
    for _ in range(setups):
        start = time.perf_counter()
        deployment = Deployment(seed)
        timings.append(time.perf_counter() - start)
    return deployment, statistics.median(timings)


def _measure(deployment: Deployment, seed: int, seconds: float) -> Dict:
    picker = ZipfPicker(random.Random(stream_seed(seed, "check-local:picks")),
                        LICENSES, ZIPF_S)
    ids = deployment.license_ids
    manager, sl_local = deployment.manager, deployment.sl_local
    clock = time.perf_counter_ns
    latencies = array("q")
    block_rates = []
    denied = 0
    checks = 0
    prefix = None
    start_counters = _counters(deployment)
    cpu_s = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        # Picks are drawn outside the timed block: the generator's work
        # is not the application's.
        block = [ids[picker.pick()] for _ in range(COMMIT_EVERY)]
        block_start = time.perf_counter()
        cpu_start = time.process_time()
        for lid in block:
            t0 = clock()
            ok = manager.check(lid)
            latencies.append(clock() - t0)
            if not ok:
                denied += 1
        sl_local.commit_cold_leases(KEEP_RESIDENT)
        cpu_s += time.process_time() - cpu_start
        now = time.perf_counter()
        block_rates.append(COMMIT_EVERY / (now - block_start))
        checks += COMMIT_EVERY
        if prefix is None and checks >= FIXED_PREFIX:
            prefix = _counters(deployment)
        if now >= deadline:
            break
    return {"latencies_ns": numpy.frombuffer(latencies, dtype=numpy.int64),
            "checks": checks, "denied": denied, "block_rates": block_rates,
            "cpu_s": cpu_s,
            "start_counters": start_counters, "prefix_counters": prefix}


def _counters(deployment: Deployment) -> Dict[str, int]:
    stats = deployment.machine.stats
    return {"cycles": deployment.machine.clock.cycles,
            "ecalls": stats.ecalls,
            "local_attestations": stats.local_attestations,
            "remote_renewals": deployment.sl_local.remote_renewals}


def run(seed: int, seconds: float, trace: bool, work: str,
        scale: Scale = FULL) -> Dict:
    """One run; ``trace`` adds a traced repetition for the layers."""
    deployment, setup_s = _setup(seed, scale.setups)
    plain = _measure(deployment, seed, seconds)
    bad_tokens = deployment.verify_tokens()
    out = {"setup_s": setup_s, "plain": plain, "bad_tokens": bad_tokens}
    if trace:
        traced_deployment = Deployment(seed)
        tracer = Tracer()
        tracer.install(LOCAL_TARGETS)
        try:
            traced = _measure(traced_deployment, seed, seconds)
        finally:
            tracer.uninstall()
        out["traced"] = traced
        out["spans"] = tracer.snapshot()
        out["bad_tokens"] += traced_deployment.verify_tokens()
    return out


def report(result: Dict, scale: Scale = FULL) -> Dict:
    """End-to-end numbers, named metrics and layers for one run."""
    plain = result["plain"]
    lat_us = plain["latencies_ns"] / 1e3
    checks = plain["checks"]
    first = plain["start_counters"]
    prefix = plain["prefix_counters"] or first
    fixed = {key: prefix[key] - first[key] for key in prefix}
    e2e = {
        "setup_s": result["setup_s"],
        # The application and its enclave services share this process.
        "cpu_ms_per_op": 1e3 * plain["cpu_s"] / checks,
    }
    named = {
        # The median block's rate (checks + its commit pass): a burst of
        # load from outside the run moves a few blocks, not the median.
        "check_rate": (statistics.median(plain["block_rates"]), "checks/s",
                       checks),
        "check_p50_us": (float(numpy.percentile(lat_us, 50)), "us", checks),
        "check_p99_us": (float(numpy.percentile(lat_us, 99)), "us", checks),
    }
    layers = {
        "sgx.cycles_per_check": fixed["cycles"] / FIXED_PREFIX,
        "sgx.ecalls_per_check": fixed["ecalls"] / FIXED_PREFIX,
        "sgx.local_attestations_per_check":
            fixed["local_attestations"] / FIXED_PREFIX,
        "sl_local.remote_renewals_per_kcheck":
            1e3 * fixed["remote_renewals"] / FIXED_PREFIX,
    }
    problems = []
    denied = plain["denied"] + result.get("traced", {}).get("denied", 0)
    if denied:
        problems.append(f"{denied} checks denied")
    if result["bad_tokens"]:
        problems.append(f"{result['bad_tokens']} tokens failed to verify")
    if plain["prefix_counters"] is None:
        problems.append(f"only {checks} checks; the sgx counters need "
                        f"{FIXED_PREFIX}")
    out = {"attempted": checks,
           "failed": plain["denied"], "e2e": e2e, "named": named,
           "layers": layers, "problems": problems}
    if "traced" in result:
        out["layers"].update(_traced_layers(result))
    return out


def _traced_layers(result: Dict) -> Dict[str, float]:
    traced, spans = result["traced"], result["spans"]["spans"]
    checks = traced["checks"]
    client_ns = float(traced["latencies_ns"].sum())
    # The runner timed each check around the same call the root span
    # wraps; what separates them is the wrapper's own cost.
    residual_ns = client_ns - total_ns(spans, "manager.check")
    plain_mean = float(result["plain"]["latencies_ns"].mean())
    return {
        **crypto_layers(spans, checks),
        "sl_local.attest_us": self_us(spans, "sl_local.attest"),
        "lease_tree.find_us": self_us(spans, "lease_tree.find"),
        # Only the lease tree unseals (decrypts) in this workload.
        "lease_tree.unseals_per_kcheck":
            1e3 * calls(spans, "crypto.aes_decrypt") / checks,
        "lease_tree.commit_us": self_us(spans, "lease_tree.commit"),
        "tokens.issue_us": self_us(spans, "tokens.issue"),
        "sl_remote.renew_us": self_us(spans, "sl_remote.renew"),
        "renewal.eq1_us": self_us(spans, "renewal.eq1"),
        "trace.residual_us": residual_ns / checks / 1e3,
        "trace.residual_ratio": residual_ns / client_ns,
        "trace.overhead_us": (client_ns / checks - plain_mean) / 1e3,
    }
