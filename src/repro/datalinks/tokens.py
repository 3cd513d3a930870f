"""Access tokens.

The host database hands out tokens when a DATALINK column is retrieved; the
token is embedded in the file name so applications keep using the plain file
system API, and DLFS validates it (through the upcall daemon) during
``fs_lookup``.  The paper's extension introduces *multiple token types* --
read tokens and write (update) tokens -- and requires the type used to be
consistent with the mode in which the file is later opened (Section 4.1).

Tokens are HMAC-SHA256 signatures over (path, type, expiry) truncated to 16
hex characters, plus the type letter and the expiry timestamp, e.g.
``W-125.000000-1a2b3c...``.

Clock-skew semantics: tokens are stamped with the *issuing* node's clock
(the host database's domain) but validated against the *validating* node's
clock (the file server's domain).  The two domains only merge at
synchronization points, so a token's effective lifetime shifts by the skew
between the nodes -- exactly as in a real distributed deployment, where
issuer and validator share a secret but not a clock.  Skew is bounded by
the work outstanding since the nodes last synchronized (milliseconds here),
which is negligible against real TTLs (the default is 60 simulated
seconds); tests that probe exact TTL boundaries use a single clock.

:class:`TokenCache` is the host-side cache in front of token generation:
tokens are capabilities, not nonces, so a still-live token for the same
(server, path, access) can be handed out again without recomputing the HMAC.
Hit/miss counters are surfaced through
:meth:`repro.datalinks.engine.DataLinksEngine.token_cache_stats`.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
from typing import NamedTuple

from repro.errors import InvalidTokenError, TokenExpiredError
from repro.simclock import TICKS_PER_SECOND, SimClock

_SIGNATURE_HEX_CHARS = 16
DEFAULT_TOKEN_TTL = 60.0

# Shared (secret, path, type, expiry) -> signature memo; see TokenManager._sign.
_SIGNATURE_CACHE: dict[tuple, str] = {}
_SIGNATURE_CACHE_LIMIT = 4096


class TokenType(enum.Enum):
    READ = "R"
    WRITE = "W"

    @property
    def allows_write(self) -> bool:
        return self is TokenType.WRITE

    @property
    def allows_read(self) -> bool:
        # A write token subsumes read permission, as in the prototype.
        return True


_TOKEN_TYPES_BY_CODE = {member.value: member for member in TokenType}


class AccessToken(NamedTuple):
    """A parsed access token (a named tuple, see :mod:`repro.fs.inode`)."""

    token_type: TokenType
    expires_at: float
    signature: str

    def render(self) -> str:
        return f"{self.token_type._value_}-{self.expires_at:.6f}-{self.signature}"

    @classmethod
    def parse(cls, text: str) -> "AccessToken":
        parts = text.split("-", 2)
        if len(parts) != 3:
            raise InvalidTokenError(f"malformed token {text!r}")
        type_code, expiry_text, signature = parts
        try:
            token_type = _TOKEN_TYPES_BY_CODE[type_code]
        except KeyError:
            raise InvalidTokenError(f"malformed token {text!r}") from None
        try:
            expires_at = float(expiry_text)
        except ValueError:
            raise InvalidTokenError(f"malformed token {text!r}") from None
        return cls(token_type, expires_at, signature)


class TokenCache:
    """Host-side cache of handed-out tokens, keyed by
    (server, path, type, requested TTL).

    The requested TTL is part of the key, so a caller asking for a
    short-lived capability can never receive a longer-lived cached one (and
    vice versa) -- each TTL class caches its own token.  Within a class a
    token is reused only while at least ``min_remaining_fraction`` of the
    TTL remains, so callers never receive a token about to expire out from
    under them; staler entries are dropped on lookup.

    The cache is bounded: expired entries are swept whenever the entry count
    reaches ``max_entries`` on a store, and if the sweep is not enough the
    oldest entries are dropped FIFO until the new token fits.  Without this
    the cache grew without bound -- every distinct (server, path, type, ttl)
    ever asked for stayed resident forever.  Evicting an *expired* entry can
    never change hit/miss accounting (a lookup of an expired entry was
    already a miss); evicting a live entry can turn a future hit into a
    miss, so ``max_entries`` should stay generously above the working set.
    """

    def __init__(self, clock: SimClock,
                 min_remaining_fraction: float = 0.5,
                 max_entries: int = 4096):
        if not isinstance(clock, SimClock):
            raise TypeError(f"TokenCache needs a SimClock, got {clock!r}")
        self._clock = clock
        self.min_remaining_fraction = float(min_remaining_fraction)
        self.max_entries = int(max_entries)
        #: ``key -> (expires_at, token text)``: a hit hands the stored text
        #: out again as it was issued.
        self._entries: dict[tuple, tuple[float, str]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, server: str, path: str, token_type: TokenType,
               ttl: float) -> str | None:
        """A cached token string with enough remaining life, or ``None``."""

        key = (server, path, token_type, float(ttl))
        try:
            expires_at, text = self._entries[key]
        except KeyError:
            pass
        else:
            remaining = expires_at - self._clock.ticks / TICKS_PER_SECOND
            if remaining >= ttl * self.min_remaining_fraction:
                self.hits += 1
                return text
            del self._entries[key]
            self.evictions += 1
        self.misses += 1
        return None

    def evict_expired(self) -> int:
        """Drop every entry whose token has expired; returns the count."""

        now = self._clock.now()
        doomed = [key for key, (expires_at, _) in self._entries.items()
                  if expires_at <= now]
        for key in doomed:
            del self._entries[key]
        self.evictions += len(doomed)
        return len(doomed)

    def store(self, server: str, path: str, token_type: TokenType,
              ttl: float, token_text: str) -> None:
        if len(self._entries) >= self.max_entries:
            self.evict_expired()
            while len(self._entries) >= self.max_entries:
                # Dicts iterate in insertion order, so this drops the oldest
                # stored (not most recently used) entry -- FIFO is enough to
                # bound the cache without per-lookup bookkeeping.
                del self._entries[next(iter(self._entries))]
                self.evictions += 1
        self._entries[(server, path, token_type, float(ttl))] = \
            (AccessToken.parse(token_text).expires_at, token_text)

    def stats(self) -> dict:
        lookups = self.hits + self.misses
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._entries),
                "evictions": self.evictions,
                "max_entries": self.max_entries,
                "hit_rate": self.hits / lookups if lookups else 0.0}


class TokenManager:
    """Generates and validates access tokens for one file server.

    The host-side DataLinks engine and the file server's DLFM each hold a
    :class:`TokenManager` configured with the same shared secret, mirroring
    the key shared between DB2 and the DLFM in the real system.
    """

    def __init__(self, secret: str, clock: SimClock,
                 default_ttl: float = DEFAULT_TOKEN_TTL):
        self._secret = secret.encode("utf-8")
        self._clock = clock
        self.default_ttl = default_ttl
        self._generate = clock.meter("token_generate")
        self._validate = clock.meter("token_validate")

    def _sign(self, path: str, token_type: TokenType, expires_at: float) -> str:
        # Signatures are pure functions of (secret, path, type, expiry) and
        # every generate/validate pair computes the same one twice; a small
        # shared memo keeps the HMAC off the upcall hot path.
        key = (self._secret, path, token_type._value_, f"{expires_at:.6f}")
        try:
            return _SIGNATURE_CACHE[key]
        except KeyError:
            pass
        message = f"{key[1]}|{key[2]}|{key[3]}".encode("utf-8")
        digest = hmac.new(self._secret, message, hashlib.sha256).hexdigest()
        if len(_SIGNATURE_CACHE) >= _SIGNATURE_CACHE_LIMIT:
            _SIGNATURE_CACHE.clear()
        signature = _SIGNATURE_CACHE[key] = digest[:_SIGNATURE_HEX_CHARS]
        return signature

    # -- generation -----------------------------------------------------------------
    def generate(self, path: str, token_type: TokenType,
                 ttl: float | None = None) -> str:
        """Create a token string for *path* valid for *ttl* simulated seconds."""

        clock = self._clock
        amount, meter = self._generate
        clock.ticks += amount
        meter[0] += 1
        now = clock.ticks / TICKS_PER_SECOND
        expires_at = now + (ttl if ttl is not None else self.default_ttl)
        signature = self._sign(path, token_type, expires_at)
        return AccessToken(token_type, expires_at, signature).render()

    # -- validation -------------------------------------------------------------------
    def validate(self, token_text: str, path: str) -> AccessToken:
        """Check signature and expiry; returns the parsed token or raises."""

        clock = self._clock
        amount, meter = self._validate
        clock.ticks += amount
        meter[0] += 1
        token = AccessToken.parse(token_text)
        expected = self._sign(path, token.token_type, token.expires_at)
        if not hmac.compare_digest(expected, token.signature):
            raise InvalidTokenError(f"bad token signature for {path!r}")
        now = clock.ticks / TICKS_PER_SECOND
        if now > token.expires_at:
            raise TokenExpiredError(
                f"token for {path!r} expired at {token.expires_at:.3f}")
        return token
