import pytest

from blocklace.simnet import AddressTable, Datagram, NetConfig, SimError, SimNet, Trace


def _net(**overrides):
    defaults = dict(loss_prob=0.0, dup_prob=0.0, delay_min=1, delay_max=1, seed=0)
    defaults.update(overrides)
    trace = Trace()
    net = SimNet(NetConfig(**defaults), trace)
    return net, trace


def _drain(net, upto):
    delivered = []
    for now in range(upto):
        delivered.extend((now, agent, payload) for agent, payload, _ in net.step(now))
    return delivered


def test_config_validation():
    for bad in (
        dict(loss_prob=1.5),
        dict(dup_prob=-0.1),
        dict(delay_min=0),
        dict(delay_min=4, delay_max=2),
    ):
        with pytest.raises(SimError):
            _net(**bad)


def test_exactly_once_next_tick():
    net, _ = _net()
    net.bind("alice", "a/0")
    net.submit(Datagram("b/0", "a/0", b"payload"), 0)
    delivered = _drain(net, 5)
    assert delivered == [(1, "alice", b"payload")]
    assert net.in_flight() == 0


def test_total_loss():
    net, trace = _net(loss_prob=1.0)
    net.bind("alice", "a/0")
    for i in range(50):
        net.submit(Datagram("b/0", "a/0", b"x"), i)
    assert _drain(net, 60) == []
    assert sum(line.endswith("\tnet=lost") for line in trace.text().splitlines()) == 50


def test_duplication():
    net, trace = _net(dup_prob=1.0)
    net.bind("alice", "a/0")
    net.submit(Datagram("b/0", "a/0", b"x"), 0)
    delivered = _drain(net, 5)
    assert len(delivered) == 2
    assert sum(line.endswith("\tnet=dup") for line in trace.text().splitlines()) == 1


@pytest.mark.parametrize(
    "loss_prob, dup_prob, fate, copies",
    [(0.0, 0.0, None, 1), (1.0, 0.0, "lost", 0), (0.0, 1.0, "dup", 2), (1.0, 1.0, "lost+dup", 1)],
)
def test_submit_writes_one_record_with_the_fate(loss_prob, dup_prob, fate, copies):
    net, trace = _net(loss_prob=loss_prob, dup_prob=dup_prob)
    net.bind("alice", "a/0")
    net.submit(Datagram("b/0", "a/0", b"x"), 0)
    assert net.in_flight() == copies
    (line,) = trace.text().splitlines()
    assert line.split("\t")[:4] == ["0", "SUBMIT", "src=b/0", "dst=a/0"]
    assert line.split("\t")[-1] == (f"net={fate}" if fate else "bytes=78")
    assert len(_drain(net, 3)) == copies


def test_delivery_byte_identity():
    net, _ = _net(dup_prob=0.5, delay_max=3)
    net.bind("alice", "a/0")
    payload = bytes(range(256))
    for i in range(20):
        net.submit(Datagram("b/0", "a/0", payload), 0)
    for _, _, got in _drain(net, 10):
        assert got == payload


def test_seeded_schedule_reproducible():
    def run(seed):
        net, trace = _net(loss_prob=0.4, dup_prob=0.2, delay_max=5, seed=seed)
        net.bind("alice", "a/0")
        for i in range(30):
            net.submit(Datagram("b/0", "a/0", b"m%d" % i), i)
            net.step(i)
        for i in range(30, 45):
            net.step(i)
        return "\n".join(trace.text().splitlines())

    assert run(3) == run(3)
    assert run(3) != run(4)


def test_fair_lossy_resubmission():
    # Heavy loss, many resubmissions: at least one must get through.
    net, _ = _net(loss_prob=0.9, seed=1)
    net.bind("alice", "a/0")
    for i in range(10_000):
        net.submit(Datagram("b/0", "a/0", b"persistent"), i)
    delivered = _drain(net, 10_005)
    assert len(delivered) >= 1


def test_rebind_drops_in_flight():
    net, trace = _net(delay_min=3, delay_max=3)
    net.bind("alice", "a/0")
    net.submit(Datagram("b/0", "a/0", b"late"), 0)
    net.rebind("alice", "a/1", 1)
    assert _drain(net, 6) == []
    assert any("DROP_STALE" in line for line in trace.text().splitlines())
    assert any("REBIND" in line for line in trace.text().splitlines())


def test_rebind_then_new_address_delivers():
    net, _ = _net()
    net.bind("alice", "a/0")
    net.rebind("alice", "a/1", 0)
    net.submit(Datagram("b/0", "a/1", b"hello"), 1)
    assert _drain(net, 4) == [(2, "alice", b"hello")]


def test_rebind_collision_rejected():
    net, _ = _net()
    net.bind("alice", "a/0")
    net.bind("bob", "b/0")
    with pytest.raises(SimError):
        net.rebind("bob", "a/0", 1)


def test_rebind_same_address_noop():
    net, trace = _net()
    net.bind("alice", "a/0")
    net.rebind("alice", "a/0", 1)
    assert not any("REBIND" in line for line in trace.text().splitlines())


def test_address_reuse_is_stale_for_old_traffic():
    # bob claims alice's abandoned address; datagrams aimed at alice's
    # tenure must not reach bob.
    net, trace = _net(delay_min=5, delay_max=5)
    net.bind("alice", "a/0")
    net.bind("bob", "b/0")
    net.submit(Datagram("x/0", "a/0", b"for-alice"), 0)
    net.rebind("alice", "a/1", 1)
    net.rebind("bob", "a/0", 2)
    assert _drain(net, 8) == []
    assert any("DROP_STALE" in line for line in trace.text().splitlines())


def test_owner_at_history():
    table = AddressTable()
    table.bind("alice", "a/0", 0)
    table.bind("alice", "a/1", 5)
    table.bind("bob", "a/0", 7)
    assert table.owner_at("a/0", 0) == "alice"
    assert table.owner_at("a/0", 6) is None
    assert table.owner_at("a/0", 7) == "bob"
    assert table.owner_at("a/1", 9) == "alice"


def test_same_tick_deliveries_shuffled_deterministically():
    def order(seed):
        net, _ = _net(seed=seed)
        net.bind("alice", "a/0")
        for i in range(10):
            net.submit(Datagram("b/0", "a/0", b"%d" % i), 0)
        return [payload for _, payload, _ in net.step(1)]

    assert order(0) == order(0)
    assert sorted(order(0)) == [b"%d" % i for i in range(10)]


def test_trace_renders_bytes_as_hex():
    trace = Trace()
    payload = bytes(range(256))
    trace.record(3, "SUBMIT", src="b/0", bytes=payload, n=2)
    trace.record(4, "TICK", agent="alice", sends=0)
    assert trace.text() == (
        f"3\tSUBMIT\tsrc=b/0\tbytes={payload.hex()}\tn=2\n"
        "4\tTICK\tagent=alice\tsends=0\n"
    )


def test_trace_writes_first_payload_inline_then_references_it():
    trace = Trace()
    trace.record(0, "SUBMIT", bytes=b"same payload")
    trace.record(1, "FINAL", agent="a", hex=bytes(b"same payload"))
    assert trace.text() == (
        f"0\tSUBMIT\tbytes={b'same payload'.hex()}\n"
        "1\tFINAL\tagent=a\thex=*0\n"
    )


def test_trace_reference_ordinals_follow_first_appearance():
    trace = Trace()
    trace.record(0, "SUBMIT", bytes=b"\x01")
    trace.record(0, "FORGE", bytes=b"\x02")
    trace.record(1, "FINAL", hex=b"\x03")
    trace.record(2, "FORGE", bytes=b"\x03")
    trace.record(2, "SUBMIT", bytes=b"\x02")
    trace.record(3, "FINAL", hex=b"\x01")
    assert trace.text().splitlines() == [
        "0\tSUBMIT\tbytes=01",
        "0\tFORGE\tbytes=02",
        "1\tFINAL\thex=03",
        "2\tFORGE\tbytes=*2",
        "2\tSUBMIT\tbytes=*1",
        "3\tFINAL\thex=*0",
    ]


def test_trace_empty_payload_takes_an_ordinal():
    trace = Trace()
    trace.record(0, "SUBMIT", bytes=b"")
    trace.record(0, "SUBMIT", bytes=b"\xff")
    trace.record(1, "SUBMIT", bytes=b"")
    trace.record(1, "SUBMIT", bytes=b"\xff")
    assert trace.text().splitlines() == [
        "0\tSUBMIT\tbytes=",
        "0\tSUBMIT\tbytes=ff",
        "1\tSUBMIT\tbytes=*0",
        "1\tSUBMIT\tbytes=*1",
    ]


def _wire(digest: bytes) -> bytes:
    """Bytes that `peek_digest_hex` reads `digest` from: two
    length-prefixed fields, a creator and the digest."""
    return b"\0\0\0\1c" + len(digest).to_bytes(4, "big") + digest


def test_trace_writes_every_id_as_a_reference():
    one, two = _wire(b"\xaa"), _wire(b"\xbb")
    trace = Trace()
    trace.record(0, "FINAL", hex=b"\x03")
    trace.record(1, "SUBMIT", id="aa", bytes=one)
    trace.record(1, "DROP_LOSS", id="aa")
    trace.record(2, "SUBMIT", id="bb", bytes=two)
    trace.record(3, "DELIVER", agent="alice", id="aa")
    trace.record(3, "SUBMIT", id="bb", bytes=two)
    trace.record(4, "EQUIVOCATE", agent="eve", id_a="aa", id_b="bb")
    assert trace.text().splitlines() == [
        "0\tFINAL\thex=03",
        f"1\tSUBMIT\tid=#0\tbytes={one.hex()}",
        "1\tDROP_LOSS\tid=#0",
        f"2\tSUBMIT\tid=#1\tbytes={two.hex()}",
        "3\tDELIVER\tagent=alice\tid=#0",
        "3\tSUBMIT\tid=#1\tbytes=*2",
        "4\tEQUIVOCATE\tagent=eve\tid_a=aa\tid_b=bb",
    ]


@pytest.mark.parametrize(
    "fields",
    [dict(id="aa"), dict(id="aa", bytes=_wire(b"\xbb")), dict(id="aa", hex=_wire(b"\xaa"))],
)
def test_trace_rejects_new_id_without_its_payload(fields):
    with pytest.raises(ValueError, match="not the digest of the record's bytes"):
        Trace().record(0, "SUBMIT", **fields)


def test_simnet_trace_refers_to_one_id_per_payload():
    net, trace = _net()
    net.bind("alice", "a/0")
    for payload in (_wire(b"\x01"), _wire(b"\x02"), _wire(b"\x01")):
        net.submit(Datagram("b/0", "a/0", payload), 0)
    _drain(net, 2)
    ids = sorted(
        (line.split("\t")[1], line.split("\tid=")[1].split("\t")[0])
        for line in trace.text().splitlines()
    )
    assert ids == [
        ("DELIVER", "#0"),
        ("DELIVER", "#0"),
        ("DELIVER", "#1"),
        ("SUBMIT", "#0"),
        ("SUBMIT", "#0"),
        ("SUBMIT", "#1"),
    ]


def test_trace_rejects_bytes_under_other_keys():
    with pytest.raises(ValueError, match="payload key"):
        Trace().record(0, "SUBMIT", id=b"\x01")


def test_empty_trace_text_is_empty():
    assert Trace().text() == ""


def test_trace_text_twice_is_equal():
    trace = Trace()
    trace.comment("seed=3")
    trace.record(0, "SUBMIT", bytes=b"\x01")
    assert trace.text() == trace.text() == "# seed=3\n0\tSUBMIT\tbytes=01\n"


def test_trace_record_after_text_appears_in_next_text():
    trace = Trace()
    trace.record(0, "SUBMIT", bytes=b"\x01")
    first = trace.text()
    trace.record(1, "SUBMIT", bytes=b"\x01")
    trace.comment("end")
    assert trace.text() == first + "1\tSUBMIT\tbytes=*0\n# end\n"


def test_trace_comment_lines():
    trace = Trace()
    trace.comment("seed=3")
    trace.record(0, "TICK", agent="alice", sends=0)
    assert trace.text() == "# seed=3\n0\tTICK\tagent=alice\tsends=0\n"
