#include "common/string_util.h"

#include <cstring>
#include <ios>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace tenet {
namespace {

TEST(StringUtilTest, AsciiToLower) {
  EXPECT_EQ(AsciiToLower("Michael Jordan"), "michael jordan");
  EXPECT_EQ(AsciiToLower("AAAS"), "aaas");
  EXPECT_EQ(AsciiToLower(""), "");
  EXPECT_EQ(AsciiToLower("a1-B2"), "a1-b2");
}

TEST(StringUtilTest, AsciiFoldLeavesHighBitBytesAlone) {
  // Regression for the locale-tolower bug: bytes >= 0x80 sit in the middle
  // of UTF-8 sequences, and a Latin-1 locale's tolower would rewrite them
  // (0xC9 'É' -> 0xE9 'é'), silently corrupting alias-index keys.  The
  // explicit ASCII fold must pass every high-bit byte through unchanged.
  for (int b = 0x80; b <= 0xFF; ++b) {
    char c = static_cast<char>(static_cast<unsigned char>(b));
    EXPECT_EQ(AsciiFoldChar(c), c) << "byte 0x" << std::hex << b;
  }
  // "Café" in UTF-8: only the ASCII 'C' folds, the C3 A9 pair survives.
  EXPECT_EQ(AsciiToLower("Caf\xC3\xA9"), "caf\xC3\xA9");
  // Uppercase 'É' (C3 89) is NOT folded to 'é' (C3 A9) — ASCII-only fold.
  EXPECT_EQ(AsciiToLower("\xC3\x89"), "\xC3\x89");
}

TEST(StringUtilTest, ParseInt64AcceptsOnlyWholeDecimalIntegers) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_EQ(ParseInt64("0").value(), 0);
  // The atoi trap: "4x" must be an error, never silently 4.
  EXPECT_TRUE(ParseInt64("4x").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64(" 4").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64("4 ").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64("0x10").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64("99999999999999999999").status()
                  .IsInvalidArgument());  // overflow
}

TEST(StringUtilTest, ParseFloat64AcceptsOnlyWholeNumbers) {
  EXPECT_DOUBLE_EQ(ParseFloat64("1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(ParseFloat64("1e3").value(), 1000.0);
  EXPECT_DOUBLE_EQ(ParseFloat64("-0.25").value(), -0.25);
  EXPECT_TRUE(ParseFloat64("10ms").status().IsInvalidArgument());
  EXPECT_TRUE(ParseFloat64("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseFloat64("1.5.2").status().IsInvalidArgument());
  EXPECT_TRUE(ParseFloat64(" 1").status().IsInvalidArgument());
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("Brooklyn", "brooklyn"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("Brooklyn", "Brookly"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

TEST(StringUtilTest, SplitDropsEmptyPieces) {
  EXPECT_EQ(SplitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString("", ','), std::vector<std::string>{});
  EXPECT_EQ(SplitString(",,", ','), std::vector<std::string>{});
  EXPECT_EQ(SplitString("single", ','),
            std::vector<std::string>{"single"});
}

TEST(StringUtilTest, JoinStrings) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ", "), "");
  EXPECT_EQ(JoinStrings({"only"}, "-"), "only");
}

TEST(StringUtilTest, SplitJoinRoundTrip) {
  std::string original = "the storm on the sea";
  EXPECT_EQ(JoinStrings(SplitString(original, ' '), " "), original);
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi  "), "hi");
  EXPECT_EQ(StripWhitespace("\t x\n"), "x");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace("no-op"), "no-op");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(EndsWith("file.cc", ".cc"));
  EXPECT_FALSE(EndsWith(".cc", "file.cc"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(StringUtilTest, IsAsciiNumber) {
  EXPECT_TRUE(IsAsciiNumber("11"));
  EXPECT_TRUE(IsAsciiNumber("0"));
  EXPECT_FALSE(IsAsciiNumber(""));
  EXPECT_FALSE(IsAsciiNumber("1a"));
  EXPECT_FALSE(IsAsciiNumber("-1"));
}

TEST(StringUtilTest, IsCapitalized) {
  EXPECT_TRUE(IsCapitalized("Galilee"));
  EXPECT_FALSE(IsCapitalized("galilee"));
  EXPECT_FALSE(IsCapitalized(""));
  EXPECT_FALSE(IsCapitalized("1st"));
}

// The high-bit boundary contract, exhaustively over all 256 byte values:
// the fold touches exactly [A-Z], and no classifier ever claims a byte
// >= 0x80 (the middle of a UTF-8 sequence) as space / digit / alpha.
// This is the agreement the tokenizer and the alias index both build on —
// a locale-leaking reimplementation (std::tolower, std::isalnum) breaks
// it for 0xC0-0xFF under Latin-1 and is UB for negative char.
TEST(StringUtilTest, FoldAndClassesAgreeOnEveryByte) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    SCOPED_TRACE(b);
    if (b >= 'A' && b <= 'Z') {
      EXPECT_EQ(AsciiFoldChar(c), static_cast<char>(b + ('a' - 'A')));
    } else {
      EXPECT_EQ(AsciiFoldChar(c), c) << "fold changed a non-[A-Z] byte";
    }
    // Folding never changes a byte's character class: the tokenizer's
    // word boundaries are identical before and after AsciiToLower.
    const char folded = AsciiFoldChar(c);
    EXPECT_EQ(IsAsciiSpaceChar(folded), IsAsciiSpaceChar(c));
    EXPECT_EQ(IsAsciiDigitChar(folded), IsAsciiDigitChar(c));
    EXPECT_EQ(IsAsciiAlphaChar(folded), IsAsciiAlphaChar(c));
    EXPECT_EQ(IsAsciiAlnumChar(folded), IsAsciiAlnumChar(c));
    if (b >= 0x80) {
      EXPECT_FALSE(IsAsciiSpaceChar(c));
      EXPECT_FALSE(IsAsciiDigitChar(c));
      EXPECT_FALSE(IsAsciiAlphaChar(c));
      EXPECT_FALSE(IsAsciiAlnumChar(c));
      EXPECT_FALSE(IsAsciiUpperChar(c));
      EXPECT_FALSE(IsCapitalized(std::string(1, c)));
    }
  }
}

TEST(StringUtilTest, AsciiToLowerPreservesHighBitBytes) {
  // Multi-byte UTF-8 ("é", "€", a Cyrillic homoglyph) and bare invalid
  // bytes pass through the fold untouched; only the ASCII letters fold.
  const std::string mixed = "Caf\xC3\xA9 \xD0\x90pple \xE2\x82\xAC5 \x80\xFF";
  EXPECT_EQ(AsciiToLower(mixed), "caf\xC3\xA9 \xD0\x90pple \xE2\x82\xAC5 \x80\xFF");
  EXPECT_TRUE(EqualsIgnoreCase("\xC3\xA9X", "\xC3\xA9x"));
  // 0xC3 vs 0xE3 differ by the case bit but are not ASCII letters: they
  // must NOT compare equal (the classic tolower-on-high-bit bug).
  EXPECT_FALSE(EqualsIgnoreCase("\xC3", "\xE3"));
}

// The SWAR fold is AsciiFoldChar in every lane, for every byte value and
// regardless of its neighbours, so AsciiFoldHash keeps the same contract.
TEST(StringUtilTest, FoldChunk8IsAsciiFoldCharPerByte) {
  for (int b = 0; b < 256; ++b) {
    for (int lane = 0; lane < 8; ++lane) {
      for (int fill : {0x00, 0x41, 0x7A, 0x80, 0xC1, 0xFF}) {
        unsigned char bytes[8];
        std::memset(bytes, fill, sizeof(bytes));
        bytes[lane] = static_cast<unsigned char>(b);
        uint64_t word;
        std::memcpy(&word, bytes, 8);
        const uint64_t folded = FoldChunk8(word);
        unsigned char out[8];
        std::memcpy(out, &folded, 8);
        for (int k = 0; k < 8; ++k) {
          ASSERT_EQ(static_cast<char>(out[k]),
                    AsciiFoldChar(static_cast<char>(bytes[k])))
              << "byte " << b << " lane " << lane << " fill " << fill;
        }
      }
    }
  }
}

TEST(StringUtilTest, AsciiFoldHashIgnoresAsciiCaseOnly) {
  for (std::string_view s :
       {"", "a", "Brooklyn", "THE STORM ON THE SEA OF GALILEE",
        "caf\xC3\xA9 Noir 11", "\xC1\xC2\xC3\xD4\xC8\xC5" " exactly 16 bytes"}) {
    const std::string lower = AsciiToLower(s);
    EXPECT_EQ(AsciiFoldHash(s.data(), s.size()),
              AsciiFoldHash(lower.data(), lower.size()))
        << s;
    char folded[64];
    AsciiFoldHash(s.data(), s.size(), folded);
    EXPECT_EQ(std::string_view(folded, s.size()), lower) << s;
  }
  EXPECT_NE(AsciiFoldHash("the", 3), AsciiFoldHash("\xD4\xC8\xC5", 3));
  EXPECT_NE(AsciiFoldHash("ab", 2), AsciiFoldHash("ab\0", 3));
}

}  // namespace
}  // namespace tenet
