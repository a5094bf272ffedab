"""The packet representation shared by every layer of the system.

Packets are flat records of integer header fields.  Flattening (rather
than nesting Ether/IP/TCP objects) keeps the NFPy frontend, the symbolic
executor and the constraint solver simple: a packet field is just a named
bounded integer, exactly the granularity at which the paper's
match/action model operates.

The field set covers what the corpus NFs inspect: L2 addresses and
ethertype, the IP 5-tuple, TTL/length, TCP flags/seq/ack, and a payload
summary (``payload_len`` plus ``payload_sig``, a content fingerprint the
IDS rules match on — standing in for byte-level content matching, which
needs only equality tests at the model level).
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.net.addresses import MAX_IPV4, MAX_MAC, MAX_PORT

# TCP flag bits (same encoding as the wire format's low flag byte).
TCP_FIN = 1
TCP_SYN = 2
TCP_RST = 4
TCP_PSH = 8
TCP_ACK = 16

# Ethertypes and IP protocol numbers used by the corpus.
ETH_IPV4 = 0x0800
ETH_ARP = 0x0806
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

#: Every packet field, with its inclusive integer domain.  The symbolic
#: solver uses these bounds both for interval propagation and for witness
#: generation, so the list is authoritative.
FIELD_DOMAINS: Dict[str, Tuple[int, int]] = {
    "in_port": (0, 255),
    "eth_src": (0, MAX_MAC),
    "eth_dst": (0, MAX_MAC),
    "eth_type": (0, 0xFFFF),
    "ip_src": (0, MAX_IPV4),
    "ip_dst": (0, MAX_IPV4),
    "proto": (0, 255),
    "ttl": (0, 255),
    "length": (0, 65535),
    "sport": (0, MAX_PORT),
    "dport": (0, MAX_PORT),
    "tcp_flags": (0, 31),
    "tcp_seq": (0, (1 << 32) - 1),
    "tcp_ack": (0, (1 << 32) - 1),
    "payload_len": (0, 65535),
    "payload_sig": (0, (1 << 32) - 1),
}

PACKET_FIELDS: Tuple[str, ...] = tuple(FIELD_DOMAINS)

_DEFAULTS: Dict[str, int] = {
    "in_port": 0,
    "eth_src": 0,
    "eth_dst": 0,
    "eth_type": ETH_IPV4,
    "ip_src": 0,
    "ip_dst": 0,
    "proto": PROTO_TCP,
    "ttl": 64,
    "length": 64,
    "sport": 0,
    "dport": 0,
    "tcp_flags": 0,
    "tcp_seq": 0,
    "tcp_ack": 0,
    "payload_len": 0,
    "payload_sig": 0,
}


class Packet:
    """A mutable network packet with flat integer header fields.

    >>> p = Packet(ip_src=1, ip_dst=2, sport=1234, dport=80)
    >>> p.dport
    80
    >>> q = p.copy()
    >>> q.dport = 443
    >>> p.dport
    80
    """

    __slots__ = tuple(PACKET_FIELDS)

    def __init__(self, **fields: int) -> None:
        for name, default in _DEFAULTS.items():
            object.__setattr__(self, name, default)
        for name, value in fields.items():
            setattr(self, name, value)

    def __setattr__(self, name: str, value: int) -> None:
        if name not in FIELD_DOMAINS:
            raise AttributeError(f"unknown packet field: {name!r}")
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"packet field {name!r} must be an int, got {value!r}")
        lo, hi = FIELD_DOMAINS[name]
        if not lo <= value <= hi:
            raise ValueError(f"packet field {name!r} out of range: {value}")
        object.__setattr__(self, name, value)

    def copy(self) -> "Packet":
        """Return an independent copy of this packet."""
        clone = object.__new__(Packet)  # every field is set below
        for name in PACKET_FIELDS:
            object.__setattr__(clone, name, getattr(self, name))
        return clone

    def to_dict(self) -> Dict[str, int]:
        """Return all fields as a plain dict (for traces and witnesses)."""
        return {name: getattr(self, name) for name in PACKET_FIELDS}

    @classmethod
    def from_dict(cls, fields: Dict[str, int]) -> "Packet":
        """Build a packet from a field dict (unknown keys rejected)."""
        return cls(**fields)

    def items(self) -> Iterator[Tuple[str, int]]:
        """Iterate over ``(field, value)`` pairs in canonical order."""
        for name in PACKET_FIELDS:
            yield name, getattr(self, name)

    def has_flag(self, bit: int) -> bool:
        """Return True if the TCP flag ``bit`` is set."""
        return bool(self.tcp_flags & bit)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in PACKET_FIELDS)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, f) for f in PACKET_FIELDS))

    def __repr__(self) -> str:
        interesting = {
            name: value
            for name, value in self.items()
            if value != _DEFAULTS[name]
        }
        inner = ", ".join(f"{k}={v}" for k, v in interesting.items())
        return f"Packet({inner})"


def tcp_packet(
    ip_src: int,
    sport: int,
    ip_dst: int,
    dport: int,
    flags: int = 0,
    **extra: int,
) -> Packet:
    """Convenience constructor for a TCP packet with the given 4-tuple."""
    return Packet(
        ip_src=ip_src,
        sport=sport,
        ip_dst=ip_dst,
        dport=dport,
        proto=PROTO_TCP,
        tcp_flags=flags,
        **extra,
    )
