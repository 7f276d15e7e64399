/**
 * @file
 * The fp_bench driver: a spec file or name on the command line, plus
 * the --list-experiments / --list-scenarios / --list-policies /
 * --list-backends discovery flags.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "core/access_policy.hh"
#include "scenarios/scenarios.hh"
#include "util/cli.hh"
#include "util/logging.hh"

#ifndef FP_EXPERIMENTS_DIR
#define FP_EXPERIMENTS_DIR "experiments"
#endif

namespace fp::bench
{

namespace
{

std::string
experimentsDir()
{
    if (const char *env = std::getenv("FP_EXPERIMENTS_DIR"))
        return env;
    return FP_EXPERIMENTS_DIR;
}

/**
 * Handle the --list-policies / --list-backends / --list-scenarios
 * discovery flags. Returns true when a flag was handled (the caller
 * exits 0): the flags print one name per line so shell pipelines can
 * consume them.
 */
bool
handleListFlags(const CliArgs &args)
{
    if (args.getBool("list-policies")) {
        for (const auto &name : core::accessPolicyNames())
            std::cout << name << "\n";
        return true;
    }
    if (args.getBool("list-backends")) {
        for (const auto &name : sim::backendKindNames())
            std::cout << name << "\n";
        return true;
    }
    if (args.getBool("list-scenarios")) {
        for (const auto &name : sim::scenarioNames())
            std::cout << name << "\n";
        return true;
    }
    return false;
}

} // namespace

std::string
resolveSpecPath(const std::string &name)
{
    const std::string path =
        experimentsDir() + "/" + name + ".json";
    if (!std::filesystem::exists(path))
        fp_fatal("no experiment spec '%s' (looked for %s; set "
                 "FP_EXPERIMENTS_DIR to relocate the spec "
                 "directory)",
                 name.c_str(), path.c_str());
    return path;
}

int
benchMain(int argc, char **argv)
{
    registerBuiltinScenarios();
    CliArgs args(argc, argv);
    if (handleListFlags(args))
        return 0;

    if (args.getBool("list-experiments")) {
        const std::string dir = experimentsDir();
        std::vector<std::string> names;
        if (std::filesystem::is_directory(dir)) {
            for (const auto &e :
                 std::filesystem::directory_iterator(dir)) {
                if (e.path().extension() == ".json")
                    names.push_back(e.path().stem().string());
            }
        }
        std::sort(names.begin(), names.end());
        for (const auto &name : names) {
            auto spec =
                sim::parseSpecFile(dir + "/" + name + ".json");
            std::cout << name;
            if (!spec.description.empty())
                std::cout << " - " << spec.description;
            std::cout << "\n";
        }
        return 0;
    }

    if (args.positional().empty()) {
        fp_fatal("usage: %s <spec.json | spec-name> [flags] "
                 "(or --list-experiments / --list-scenarios / "
                 "--list-policies / --list-backends)",
                 args.program().c_str());
    }
    const std::string &target = args.positional().front();
    const bool is_path =
        target.find('/') != std::string::npos ||
        (target.size() > 5 &&
         target.compare(target.size() - 5, 5, ".json") == 0);
    const std::string path =
        is_path ? target : resolveSpecPath(target);
    auto spec = sim::parseSpecFile(path);
    return sim::runSpec(spec, args);
}

void
registerBuiltinScenarios()
{
    static const bool once = [] {
        registerFig10Scenario();
        registerFig11Scenario();
        registerFig12Scenario();
        registerFig13Scenario();
        registerFig14Scenario();
        registerFig15Scenario();
        registerFig16Scenario();
        registerFig17Scenario();
        registerFig18Scenario();
        registerFig19Scenario();
        registerTable2Scenario();
        registerOverlapScenario();
        registerAblationScenario();
        registerReplacingScenario();
        registerFaultsScenario();
        registerShardsScenario();
        registerSmokeScenario();
        return true;
    }();
    (void)once;
}

} // namespace fp::bench
