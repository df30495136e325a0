#include "common/flags.h"

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace approxmem {
namespace {

Flags MustParse(std::vector<const char*> args) {
  args.insert(args.begin(), "binary");
  StatusOr<Flags> flags =
      Flags::Parse(static_cast<int>(args.size()),
                   const_cast<char**>(args.data()));
  EXPECT_TRUE(flags.ok()) << flags.status().ToString();
  return flags.value();
}

TEST(FlagsTest, EqualsSyntax) {
  const Flags flags = MustParse({"--n=1000", "--t=0.055"});
  EXPECT_EQ(flags.GetInt("n", 0), 1000);
  EXPECT_DOUBLE_EQ(flags.GetDouble("t", 0.0), 0.055);
}

TEST(FlagsTest, SpaceSyntax) {
  const Flags flags = MustParse({"--algo", "quicksort"});
  EXPECT_EQ(flags.GetString("algo", ""), "quicksort");
}

TEST(FlagsTest, BareBoolean) {
  const Flags flags = MustParse({"--full", "--n=5"});
  EXPECT_TRUE(flags.GetBool("full", false));
  EXPECT_TRUE(flags.Has("full"));
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, ExplicitFalse) {
  const Flags flags = MustParse({"--full=false", "--quiet=0"});
  EXPECT_FALSE(flags.GetBool("full", true));
  EXPECT_FALSE(flags.GetBool("quiet", true));
}

TEST(FlagsTest, CheckListedInRejectsUnlistedNames) {
  constexpr char kUsage[] = "usage: x --cmd=A [--sort_threads=K] --exact\n";
  EXPECT_TRUE(MustParse({"--cmd=sort", "--sort_threads=4", "--exact"})
                  .CheckListedIn(kUsage)
                  .ok());
  // A typo that is a prefix of a listed name is still unknown.
  const Status typo = MustParse({"--sort_thread=4"}).CheckListedIn(kUsage);
  EXPECT_EQ(typo.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(typo.message().find("--sort_thread"), std::string::npos);
  EXPECT_FALSE(MustParse({"--ex"}).CheckListedIn(kUsage).ok());
  EXPECT_FALSE(MustParse({"--algo=lsd3"}).CheckListedIn(kUsage).ok());
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const Flags flags = MustParse({});
  EXPECT_EQ(flags.GetInt("n", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("t", 0.25), 0.25);
  EXPECT_EQ(flags.GetString("s", "d"), "d");
  EXPECT_TRUE(flags.GetBool("b", true));
}

TEST(FlagsTest, RejectsPositionalArguments) {
  std::vector<const char*> args = {"binary", "positional"};
  StatusOr<Flags> flags =
      Flags::Parse(static_cast<int>(args.size()),
                   const_cast<char**>(args.data()));
  EXPECT_FALSE(flags.ok());
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlagsTest, EnvSizeParsesAndDefaults) {
  ::setenv("APPROXMEM_TEST_ENV_N", "12345", 1);
  EXPECT_EQ(Flags::EnvSize("APPROXMEM_TEST_ENV_N", 1), 12345u);
  ::unsetenv("APPROXMEM_TEST_ENV_N");
  EXPECT_EQ(Flags::EnvSize("APPROXMEM_TEST_ENV_N", 17), 17u);
  ::setenv("APPROXMEM_TEST_ENV_N", "garbage", 1);
  EXPECT_EQ(Flags::EnvSize("APPROXMEM_TEST_ENV_N", 17), 17u);
  ::unsetenv("APPROXMEM_TEST_ENV_N");
}

}  // namespace
}  // namespace approxmem
