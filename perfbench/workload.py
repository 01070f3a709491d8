"""Seeded marketplace graph, request streams and answer checks.

Everything here is a pure function of (workload, seed): the graph CSVs,
each connection's request stream, and the answers the server must give.
The server only ever receives the generated CSV files (through the
loader) and the generated statement texts.
"""

import bisect
import random
import re
from collections import Counter, OrderedDict

# ---------------------------------------------------------------------------
# The graph
# ---------------------------------------------------------------------------


class Marketplace:
    """Vendors OFFER products; users ORDER products (3 orders per user)."""

    def __init__(self, sizes, seed):
        rng = random.Random(f"graph/{seed}")
        self.nv, self.np, self.nu = sizes["Vendor"], sizes["Product"], sizes["User"]
        self.vendor_name = [f"vendor-{i}-{rng.randrange(10**6)}" for i in range(self.nv)]
        self.product_name = [f"product-{i}-{rng.randrange(10**6)}" for i in range(self.np)]
        self.price = [rng.randrange(100, 100000) for _ in range(self.np)]
        self.user_name = [f"user-{i}-{rng.randrange(10**6)}" for i in range(self.nu)]
        self.offered_by = [rng.randrange(self.nv) for _ in range(self.np)]
        # products are ordered uniformly: the request keys carry the skew,
        # and uniform fan-out keeps a hot user's 2-hop cost from depending
        # on which products the seed happened to give it
        self.orders = [[] for _ in range(self.nu)]  # user -> [(product, qty)]
        self.buyers = [[] for _ in range(self.np)]  # product -> [user]
        for u in range(self.nu):
            for _ in range(sizes["orders_per_user"]):
                p = rng.randrange(self.np)
                self.orders[u].append((p, rng.randrange(1, 5)))
                self.buyers[p].append(u)
        self.catalogue = [[0, None, None] for _ in range(self.nv)]
        for p, v in enumerate(self.offered_by):
            c = self.catalogue[v]
            c[0] += 1
            c[1] = self.price[p] if c[1] is None else min(c[1], self.price[p])
            c[2] = self.price[p] if c[2] is None else max(c[2], self.price[p])
        self._copurchase = {}

    def write_csv(self, nodes_path, rels_path):
        with open(nodes_path, "w") as f:
            f.write("id,labels,key,name,price\n")
            for i, n in enumerate(self.vendor_name):
                f.write(f"v{i},Vendor,{i},{n},\n")
            for i, n in enumerate(self.product_name):
                f.write(f"p{i},Product,{i},{n},{self.price[i]}\n")
            for i, n in enumerate(self.user_name):
                f.write(f"u{i},User,{i},{n},\n")
        with open(rels_path, "w") as f:
            f.write("src,tgt,type,qty\n")
            for p, v in enumerate(self.offered_by):
                f.write(f"v{v},p{p},OFFERS,\n")
            for u, orders in enumerate(self.orders):
                for p, q in orders:
                    f.write(f"u{u},p{p},ORDERED,{q}\n")

    def copurchase(self, u):
        """Top-10 (user, shared) rows of the co-purchase template."""
        if u not in self._copurchase:
            shared = Counter()
            for p, _ in self.orders[u]:
                for o in self.buyers[p]:
                    if o != u:
                        shared[o] += 1
            top = sorted(shared.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
            self._copurchase[u] = [[o, n] for o, n in top]
        return self._copurchase[u]


class Zipf:
    """Rank-frequency Zipf over 0..n-1, ranks mapped through a seeded
    permutation so that which keys are hot depends on the seed."""

    def __init__(self, n, s, rng):
        total, self.cum = 0.0, []
        for k in range(1, n + 1):
            total += k ** -s
            self.cum.append(total)
        self.perm = list(range(n))
        rng.shuffle(self.perm)

    def draw(self, rng):
        r = bisect.bisect_left(self.cum, rng.random() * self.cum[-1])
        return self.perm[min(r, len(self.perm) - 1)]


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

READ_TEMPLATES = {
    "read_lookup": "MATCH (u:User {{key: {k}}}) RETURN u.name AS name",
    "read_orders": (
        "MATCH (u:User {{key: {k}}})-[o:ORDERED]->(p:Product) "
        "RETURN p.key AS product, o.qty AS qty ORDER BY product, qty"
    ),
    "read_copurchase": (
        "MATCH (u:User {{key: {k}}})-[:ORDERED]->(:Product)<-[:ORDERED]-(o:User) "
        "WHERE o <> u RETURN o.key AS user, count(*) AS shared "
        "ORDER BY shared DESC, user LIMIT 10"
    ),
    "read_catalogue": (
        "MATCH (v:Vendor {{key: {k}}})-[:OFFERS]->(p:Product) "
        "RETURN count(p) AS products, min(p.price) AS lo, max(p.price) AS hi"
    ),
}


class Op:
    """One request: a statement, or a transaction's lines.  [key] and
    [tags] let the checker and the durability check find the answer."""

    __slots__ = ("kind", "lines", "key", "tags", "rows")

    def __init__(self, kind, lines, key=None, tags=(), rows=()):
        self.kind, self.lines, self.key, self.tags, self.rows = kind, lines, key, tags, rows

    @property
    def cls(self):
        if self.kind == "tx":
            return "tx"
        return "read" if self.kind.startswith("read_") else "write"


def deck(rng, mix):
    """Endless op kinds: each shuffled deck holds exactly [mix] of each,
    so every run's class proportions are exact to within one deck."""
    cards = [k for k, n in mix.items() for _ in range(n)]
    while True:
        rng.shuffle(cards)
        yield from cards


def read_op(kind, key):
    return Op(kind, [READ_TEMPLATES[kind].format(k=key)], key=key)


def shop_read_stream(spec, m, seed, conn):
    rng = random.Random(f"stream/shop-read/{seed}/{conn}")
    # the hot keys are the same on both connections
    users = Zipf(m.nu, spec["zipf_s"], random.Random(f"hot-users/{seed}"))
    vendors = Zipf(m.nv, spec["zipf_s"], random.Random(f"hot-vendors/{seed}"))
    for kind in deck(rng, spec["mix"]):
        key = vendors.draw(rng) if kind == "read_catalogue" else users.draw(rng)
        yield read_op(kind, key)


def shop_mixed_stream(spec, m, seed, conn):
    rng = random.Random(f"stream/shop-mixed/{seed}/{conn}")
    hot = random.Random(f"hot-products/{seed}").sample(range(m.np), spec["tx_hot_products"])
    for i, kind in enumerate(deck(rng, spec["mix"])):
        tag = f"c{conn}n{i}"
        if kind.startswith("read_"):
            key = rng.randrange(m.nv if kind == "read_catalogue" else m.nu)
            yield read_op(kind, key)
        elif kind == "write_create":
            u, p = rng.randrange(m.nu), rng.randrange(m.np)
            yield Op(kind, [
                f"MATCH (u:User {{key: {u}}}), (p:Product {{key: {p}}}) "
                f"CREATE (u)-[:ORDERED {{qty: 1, tag: '{tag}'}}]->(p)"
            ], key=(u, p), tags=(tag,))
        elif kind == "write_set":
            # a price no product holds yet, so the SET always changes it
            # and its counters are exactly "Set 2 properties"
            p = rng.randrange(m.np)
            yield Op(kind, [
                f"MATCH (p:Product {{key: {p}}}) "
                f"SET p.price = {100000 + 2 * i + conn}, p.tag = '{tag}'"
            ], key=p, tags=(tag,))
        else:  # tx: read a hot product's price, then raise it
            p = rng.choice(hot)
            yield Op("tx", [
                ":begin",
                f"MATCH (p:Product {{key: {p}}}) RETURN p.price AS price",
                f"MATCH (p:Product {{key: {p}}}) SET p.price = p.price + 1, p.tag = '{tag}'",
                ":commit",
            ], key=p, tags=(tag,))


def merge_ingest_stream(spec, m, seed, conn):
    rng = random.Random(f"stream/merge-ingest/{seed}/{conn}")
    batch = spec["batch"]
    pending = []  # batches of (user, product, tag) merged and not yet deleted
    for i, kind in enumerate(deck(rng, spec["mix"])):
        if kind in ("merge_same", "merge_all"):
            rows = [(rng.randrange(m.nu), rng.randrange(m.np), f"m{conn}n{i}r{j}")
                    for j in range(batch)]
            word = "SAME" if kind == "merge_same" else "ALL"
            body = ", ".join(f"{{u: {u}, p: {p}, t: '{t}'}}" for u, p, t in rows)
            pending.append(rows)
            yield Op(kind, [
                f"UNWIND [{body}] AS r MATCH (u:User {{key: r.u}}), (p:Product {{key: r.p}}) "
                f"MERGE {word} (u)-[:ORDERED {{tag: r.t}}]->(p)"
            ], tags=tuple(t for _, _, t in rows), rows=rows)
        elif kind == "set":
            tag = f"s{conn}n{i}"
            keys = rng.sample(range(m.np), batch)
            yield Op(kind, [
                f"UNWIND {keys} AS k MATCH (p:Product {{key: k}}) "
                f"SET p.price = p.price + 1, p.tag = '{tag}' RETURN count(*) AS n"
            ], key=tuple(keys), tags=(tag,))
        else:  # delete: the oldest pending batches, as many as were merged
            rows = [r for b in pending[: spec["delete_batches"]] for r in b]
            del pending[: spec["delete_batches"]]
            body = ", ".join(f"[{u}, {p}, '{t}']" for u, p, t in rows)
            yield Op(kind, [
                f"UNWIND [{body}] AS r MATCH (u:User {{key: r[0]}})-[o:ORDERED]->"
                f"(p:Product {{key: r[1]}}) WHERE o.tag = r[2] DELETE o RETURN count(*) AS n"
            ], tags=tuple(t for _, _, t in rows), rows=rows)


STREAMS = {
    "shop-read": shop_read_stream,
    "shop-mixed": shop_mixed_stream,
    "merge-ingest": merge_ingest_stream,
}


def plan_cache_profile(ops, capacity=128):
    """Distinct statement texts and the hit ratio of an LRU plan cache
    of [capacity] entries (the server's default) over one connection's
    statements."""
    lru, hits, total, distinct = OrderedDict(), 0, 0, set()
    for op in ops:
        for line in op.lines:
            if line.startswith(":"):
                continue
            total += 1
            distinct.add(line)
            if line in lru:
                hits += 1
                lru.move_to_end(line)
            else:
                lru[line] = True
                if len(lru) > capacity:
                    lru.popitem(last=False)
    return len(distinct), hits / max(1, total)


# ---------------------------------------------------------------------------
# Answers
# ---------------------------------------------------------------------------

FOOTER = re.compile(r"^(Created|Set|Deleted|Added|Removed) \d+ ")


def parse_table(lines):
    """Header and rows of a rendered table (ints as int, strings as str)."""
    if not lines or not lines[0].startswith("|"):
        return None, []

    def cells(line):
        return [c.strip() for c in line.strip().strip("|").split("|")]

    def value(c):
        if len(c) >= 2 and c[0] == "'" and c[-1] == "'":
            return c[1:-1]
        try:
            return int(c)
        except ValueError:
            return c

    header = cells(lines[0])
    rows = [[value(c) for c in cells(l)] for l in lines[1:] if l.startswith("|")]
    return header, rows


def footer_of(lines):
    return next((l for l in lines if FOOTER.match(l)), "")


def counters(created=0, props=0, deleted=0):
    parts = []
    if created:
        parts.append(f"created {created} relationship" + ("s" if created > 1 else ""))
    if props:
        parts.append(f"set {props} propert" + ("ies" if props > 1 else "y"))
    if deleted:
        parts.append(f"deleted {deleted} relationship" + ("s" if deleted > 1 else ""))
    s = ", ".join(parts)
    return s[:1].upper() + s[1:]


def check(op, payloads, m, exact):
    """Whether the payload lines of each of [op]'s requests are the
    answer its statement implies.  [exact] holds when no write can have
    changed the data the read looks at (shop-read)."""
    kind = op.kind
    if kind == "tx":
        head, rows = parse_table(payloads[1])
        return (payloads[0] == [] and payloads[3] == []
                and head == ["price"] and len(rows) == 1 and isinstance(rows[0][0], int)
                and footer_of(payloads[2]) == counters(props=2))
    lines = payloads[0]
    head, rows = parse_table(lines)
    if kind == "read_lookup":
        return head == ["name"] and rows == [[m.user_name[op.key]]]
    if kind == "read_orders":
        if head != ["product", "qty"]:
            return False
        base = sorted([p, q] for p, q in m.orders[op.key])
        if exact:
            return rows == base
        extra = Counter(map(tuple, rows))
        extra.subtract(Counter(map(tuple, base)))
        return rows == sorted(rows) and all(
            n == 0 or (n > 0 and r[1] == 1) for r, n in extra.items())
    if kind == "read_copurchase":
        if head != ["user", "shared"]:
            return False
        if exact:
            return rows == m.copurchase(op.key)
        return len(rows) <= 10 and rows == sorted(rows, key=lambda r: (-r[1], r[0]))
    if kind == "read_catalogue":
        count, lo, hi = m.catalogue[op.key]
        if head != ["products", "lo", "hi"]:
            return False
        if exact:
            return rows == [[count, lo, hi]]
        return len(rows) == 1 and rows[0][0] == count and rows[0][1] <= rows[0][2]
    footer = footer_of(lines)
    if kind == "write_create":
        return footer == counters(created=1, props=2)
    if kind == "write_set":
        return footer == counters(props=2)
    if kind in ("merge_same", "merge_all"):
        return footer == counters(created=len(op.rows), props=len(op.rows))
    if kind == "set":
        return rows == [[len(op.key)]] and footer == counters(props=2 * len(op.key))
    if kind == "delete":
        n = len(op.rows)
        return rows == [[n]] and footer == counters(deleted=n)
    return False
