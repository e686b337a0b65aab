"""Unit tests for IP-to-AS mapping services."""

import ipaddress

import pytest

from repro.mapping import (
    FINAL_ORDER,
    INITIAL_ORDER,
    IpAsnService,
    IterativeResolver,
    PeeringDB,
    WhoisRecord,
    WhoisRegistry,
    cymru_from_scenario,
    peeringdb_from_scenario,
    resolver_from_scenario,
    whois_from_scenario,
)
from repro.mapping.peeringdb import IXLanRecord, NetIXLanRecord
from repro.netgen import build_scenario, tiny


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(tiny())


def net(s: str) -> ipaddress.IPv4Network:
    return ipaddress.IPv4Network(s)


class TestIpAsnService:
    def test_longest_prefix_wins(self):
        svc = IpAsnService([(net("10.0.0.0/8"), 1), (net("10.1.0.0/16"), 2)])
        assert svc.lookup("10.1.2.3") == 2
        assert svc.lookup("10.2.2.3") == 1
        assert svc.lookup("11.0.0.1") is None

    def test_conflicting_announcement_rejected(self):
        svc = IpAsnService([(net("10.0.0.0/8"), 1)])
        with pytest.raises(ValueError):
            svc.announce(net("10.0.0.0/8"), 2)
        svc.announce(net("10.0.0.0/8"), 1)  # idempotent re-announce ok

    def test_withdraw(self):
        svc = IpAsnService([(net("10.0.0.0/8"), 1)])
        svc.withdraw(net("10.0.0.0/8"))
        assert svc.lookup("10.0.0.1") is None
        svc.withdraw(net("10.0.0.0/8"))  # no-op

    def test_scenario_view_resolves_as_prefixes(self, scenario):
        svc = cymru_from_scenario(scenario)
        for asn, prefix in list(scenario.prefixes.items())[:20]:
            assert svc.lookup(prefix[1]) == asn

    def test_scenario_view_honours_announced_flag(self, scenario):
        svc = cymru_from_scenario(scenario)
        for ixp in scenario.ixps:
            expected = ixp.asn if ixp.announced else None
            assert svc.lookup(ixp.lan[2]) == expected


class TestPeeringDB:
    def test_ip_to_asn_exact(self):
        lan = net("193.238.0.0/24")
        pdb = PeeringDB(
            ixlans=[IXLanRecord(0, "Test IX", "lon", lan)],
            netixlans=[NetIXLanRecord(asn=65000, ixp_id=0, ip=lan[5])],
        )
        assert pdb.ip_to_asn(lan[5]) == 65000
        assert pdb.ip_to_asn(lan[6]) is None
        assert pdb.is_ixp_address(lan[6])
        assert not pdb.is_ixp_address("10.0.0.1")

    def test_membership_queries(self, scenario):
        pdb = peeringdb_from_scenario(scenario)
        for ixp in scenario.ixps:
            assert pdb.members_of(ixp.ixp_id) == ixp.members
            for member in ixp.members:
                assert ixp.ixp_id in pdb.exchanges_of(member)
                assert pdb.ip_to_asn(ixp.member_ip(member)) == member

    def test_facility_cities_subset_of_footprint(self, scenario):
        pdb = peeringdb_from_scenario(scenario)
        for name, asn in scenario.clouds.items():
            cities = pdb.facility_cities(asn)
            footprint = {c.code for c in scenario.pop_footprints[name]}
            assert cities <= footprint
            assert cities  # the sampling keeps most facilities


class TestWhois:
    def test_lookup_most_specific(self):
        registry = WhoisRegistry(
            [
                WhoisRecord(net("193.0.0.0/8"), "RIR block", None),
                WhoisRecord(net("193.238.116.0/22"), "NL-IX", 64999),
            ]
        )
        assert registry.lookup("193.238.116.9").org_name == "NL-IX"
        assert registry.lookup_asn("193.1.1.1") is None
        assert registry.lookup("8.8.8.8") is None

    def test_scenario_registry_covers_unannounced_lans(self, scenario):
        registry = whois_from_scenario(scenario)
        for ixp in scenario.ixps:
            record = registry.lookup(ixp.lan[3])
            assert record is not None
            assert record.asn == ixp.asn

    def test_order_is_a_stable_sort_by_prefix_length(self, scenario):
        registry = whois_from_scenario(scenario)
        records = [
            WhoisRecord(prefix, scenario.name_of(asn), asn)
            for asn, prefix in scenario.prefixes.items()
        ] + [WhoisRecord(ixp.lan, ixp.name, ixp.asn) for ixp in scenario.ixps]
        assert registry._records == sorted(
            records, key=lambda r: -r.network.prefixlen
        )

    def test_lookup_agrees_with_a_scan(self):
        # nested, disjoint and duplicate networks registered out of order;
        # of two records for one network the first registered wins
        records = [
            WhoisRecord(net("10.0.0.0/8"), "big", 1),
            WhoisRecord(net("10.1.0.0/16"), "mid", 2),
            WhoisRecord(net("10.1.2.0/24"), "first", 3),
            WhoisRecord(net("192.0.2.0/24"), "doc", None),
            WhoisRecord(net("10.1.2.0/24"), "second", 4),
            WhoisRecord(net("10.1.2.128/25"), "half", 5),
            WhoisRecord(net("0.0.0.0/0"), "default", 6),
            WhoisRecord(net("10.1.0.0/16"), "mid-again", 7),
        ]
        registry = WhoisRegistry(records)

        def scan(address):
            address = ipaddress.IPv4Address(address)
            best = None
            for record in records:
                if address in record.network and (
                    best is None
                    or record.network.prefixlen > best.network.prefixlen
                ):
                    best = record
            return best

        probes = [
            "10.1.2.3", "10.1.2.200", "10.1.3.1", "10.9.9.9",
            "192.0.2.7", "8.8.8.8", "10.1.2.127", "10.1.2.128",
        ]
        for probe in probes:
            assert registry.lookup(probe) is scan(probe), probe
        assert registry.lookup("10.1.2.3").org_name == "first"
        assert registry.lookup("10.1.9.9").org_name == "mid"
        assert registry.lookup_asn("192.0.2.1") is None


class TestResolver:
    def test_order_validation(self, scenario):
        with pytest.raises(ValueError):
            resolver_from_scenario(scenario, order=("dns",))
        with pytest.raises(ValueError):
            resolver_from_scenario(scenario, order=())

    def test_final_order_prefers_peeringdb(self, scenario):
        resolver = resolver_from_scenario(scenario, order=FINAL_ORDER)
        announced = [i for i in scenario.ixps if i.announced and i.members]
        if not announced:
            pytest.skip("no announced populated IXPs in this seed")
        ixp = announced[0]
        member = sorted(ixp.members)[0]
        hit = resolver.resolve(ixp.member_ip(member))
        assert hit.asn == member
        assert hit.source == "peeringdb"

    def test_cymru_first_misattributes_announced_lans(self, scenario):
        resolver = resolver_from_scenario(
            scenario, order=("cymru", "peeringdb", "whois")
        )
        announced = [i for i in scenario.ixps if i.announced and i.members]
        if not announced:
            pytest.skip("no announced populated IXPs in this seed")
        ixp = announced[0]
        member = sorted(ixp.members)[0]
        hit = resolver.resolve(ixp.member_ip(member))
        assert hit.asn == ixp.asn  # the IXP's ASN, not the member's

    def test_initial_order_fails_on_unannounced(self, scenario):
        resolver = resolver_from_scenario(scenario, order=INITIAL_ORDER)
        unannounced = [i for i in scenario.ixps if not i.announced and i.members]
        if not unannounced:
            pytest.skip("no unannounced populated IXPs in this seed")
        ixp = unannounced[0]
        member = sorted(ixp.members)[0]
        assert resolver.resolve(ixp.member_ip(member)) is None

    def test_whois_fallback(self, scenario):
        resolver = resolver_from_scenario(scenario, order=("whois",))
        asn, prefix = next(iter(scenario.prefixes.items()))
        assert resolver.resolve(prefix[9]).source == "whois"
        assert resolver.resolve(prefix[9]).asn == asn
        assert resolver.resolve("203.0.113.5") is None

    def test_str_int_and_address_input_agree(self, scenario):
        addresses = [
            ixp.member_ip(m) for ixp in scenario.ixps for m in ixp.members
        ]
        addresses += [prefix[9] for prefix in scenario.prefixes.values()]
        addresses.append(ipaddress.IPv4Address("203.0.113.5"))
        orders = (FINAL_ORDER, INITIAL_ORDER, ("cymru", "peeringdb", "whois"))
        for order in orders:
            by_address = resolver_from_scenario(scenario, order=order)
            by_str = resolver_from_scenario(scenario, order=order)
            by_int = resolver_from_scenario(scenario, order=order)
            for address in addresses:
                want = by_address.resolve(address)
                assert by_str.resolve(str(address)) == want
                assert by_int.resolve(int(address)) == want
                # a repeat answers from the memo, whatever the input type
                assert by_address.resolve(str(address)) == want

    def test_each_address_queried_once(self, scenario, monkeypatch):
        resolver = resolver_from_scenario(scenario, order=FINAL_ORDER)
        asked: list[tuple[str, int]] = []

        def counted(name, real):
            def query(ip):
                asked.append((name, ip))
                return real(ip)

            return query

        for service, name in (
            (resolver.peeringdb, "ip_to_asn"),
            (resolver.cymru, "lookup"),
            (resolver.whois, "lookup_asn"),
        ):
            monkeypatch.setattr(
                service, name, counted(name, getattr(service, name))
            )
        addresses = [
            ixp.member_ip(m) for ixp in scenario.ixps for m in ixp.members
        ]
        addresses.append(ipaddress.IPv4Address("203.0.113.5"))
        first = [resolver.resolve(a) for a in addresses]
        queries = len(asked)
        again = [resolver.resolve(a) for a in addresses]
        again += [resolver.resolve(str(a)) for a in addresses]
        assert again == first + first
        assert len(asked) == queries  # every repeat came from the memo
        # the unresolvable address went down the whole cascade, once
        unresolved = int(addresses[-1])
        assert [name for name, ip in asked if ip == unresolved] == [
            "ip_to_asn", "lookup", "lookup_asn"
        ]
