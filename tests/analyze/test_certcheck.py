"""The independent certificate checker: accepts the prover, rejects forgeries."""

import json
import random

import pytest

from repro.analyze import check_certificate, check_certificates
from repro.analyze.symbolic import certify, certify_all
from repro.analyze.symbolic.certificate import content_digest


#: (seed, samples): byte-level tampering campaigns over every family's
#: certificates.
TAMPER_CAMPAIGNS = ((42, 100), (0, 60))


@pytest.fixture(scope="module")
def all_certs():
    return [
        c.to_dict() for rep in certify_all() for c in rep.certificates
    ]


class TestAccepts:
    def test_every_prover_certificate_validates(self, all_certs):
        results = check_certificates(all_certs)
        bad = [r for r in results if not r.ok]
        assert not bad, [r.describe() for r in bad]

    def test_accepts_json_text_input(self):
        cert = certify("dim-order-mesh").certificates[0]
        assert check_certificate(cert.to_json()).ok


class TestRejectsTampering:
    def test_any_mutated_byte_is_rejected(self, all_certs):
        texts = [
            json.dumps(d, sort_keys=True, separators=(",", ":"))
            for d in all_certs
        ]
        for seed, samples in TAMPER_CAMPAIGNS:
            rng = random.Random(seed)
            for _ in range(samples):
                text = rng.choice(texts)
                pos = rng.randrange(len(text))
                old = text[pos]
                new = chr((ord(old) - 32 + rng.randrange(1, 95)) % 95 + 32)
                tampered = text[:pos] + new + text[pos:][1:]
                try:
                    parsed = json.loads(tampered)
                except ValueError:
                    continue  # the mutation broke the JSON: rejected trivially
                if parsed == json.loads(text):
                    continue  # value-equal mutation (e.g. 1 -> 01 is invalid JSON anyway)
                assert not check_certificate(parsed).ok, (seed, pos, old, new)

    def test_flipped_status_with_recomputed_digest_is_rejected(self):
        # A semantic forgery: flip the verdict AND reseal the digest.  The
        # digest check passes, so only re-derivation can catch it.
        cert = next(
            c for c in certify("mesh-backward-turn").certificates
            if c.rule == "EBDA003"
        )
        forged = cert.to_dict()
        forged["status"] = "clean"
        forged["region"] = {"kind": "none"}
        forged["digest"] = content_digest(
            {k: v for k, v in forged.items() if k != "digest"}
        )
        result = check_certificate(forged)
        assert not result.ok

    def test_forged_region_is_rejected(self):
        cert = next(
            c for c in certify("torus-no-dateline").certificates
            if c.rule == "EBDA005"
        )
        forged = cert.to_dict()
        forged["region"] = {"kind": "k-ge", "k0": 99}
        forged["digest"] = content_digest(
            {k: v for k, v in forged.items() if k != "digest"}
        )
        assert not check_certificate(forged).ok

    def test_unlisted_axiom_is_rejected(self):
        cert = next(
            c for c in certify("dim-order-mesh").certificates
            if c.rule == "EBDA005"
        )
        forged = cert.to_dict()
        forged["premises"] = list(forged["premises"]) + [
            {"axiom": "trust-me", "fact": "everything is fine"}
        ]
        forged["digest"] = content_digest(
            {k: v for k, v in forged.items() if k != "digest"}
        )
        assert not check_certificate(forged).ok

    def test_garbage_structures_are_rejected_not_crashed(self):
        for garbage in (None, 7, [], {}, {"rule": "EBDA001"}, "not json {"):
            assert not check_certificate(garbage).ok
