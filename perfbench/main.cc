/**
 * @file
 * Job binary of the benchmark. perfbench/run.py spawns one process per
 * job, so a job that dies (PIM_PANIC ends in std::abort(), PIM_FATAL in
 * exit(1)) fails alone while the other jobs still report.
 *
 *   perfbench_job job --workload W --seed N [--mode timed|reference|traced]
 *                 [--spans PATH]
 *   perfbench_job probe --case wrong-answer|abort
 *
 * The last line of standard output is "PERFBENCH_JOB <json>": ok,
 * reason, digest and the job's metrics.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/xassert.h"
#include "workloads.h"

namespace {

using perfbench::JobReport;

void
printJsonString(const std::string& text)
{
    std::putchar('"');
    for (char c : text) {
        if (c == '"' || c == '\\')
            std::printf("\\%c", c);
        else if (static_cast<unsigned char>(c) < 0x20)
            std::putchar(' ');
        else
            std::putchar(c);
    }
    std::putchar('"');
}

void
printReport(const JobReport& report)
{
    std::printf("PERFBENCH_JOB {\"ok\":%s,\"reason\":",
                report.ok ? "true" : "false");
    printJsonString(report.reason);
    std::printf(",\"digest\":");
    printJsonString(report.digest);
    std::printf(",\"metrics\":{");
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        std::printf(i == 0 ? "" : ",");
        printJsonString(report.metrics[i].first);
        std::printf(":%.17g", report.metrics[i].second);
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

int
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench_job: %s\n"
                 "usage: perfbench_job job --workload W --seed N "
                 "[--mode timed|reference|traced] [--spans PATH]\n"
                 "       perfbench_job probe --case wrong-answer|abort\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage("missing command");
    const std::string command = argv[1];
    perfbench::JobOptions options;
    std::string probe_case;
    for (int i = 2; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            char* end = nullptr;
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                return usage("--seed wants a non-negative integer");
        } else if (flag == "--mode") {
            if (value == "timed")
                options.mode = perfbench::Mode::Timed;
            else if (value == "reference")
                options.mode = perfbench::Mode::Reference;
            else if (value == "traced")
                options.mode = perfbench::Mode::Traced;
            else
                return usage("--mode wants timed, reference or traced");
        } else if (flag == "--spans") {
            options.spansPath = value;
        } else if (flag == "--case") {
            probe_case = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }

    JobReport report;
    try {
        if (command == "job") {
            report = perfbench::runJob(options);
        } else if (command == "probe" && probe_case == "wrong-answer") {
            report = perfbench::runAnswerProbe("0");
        } else if (command == "probe" && probe_case == "abort") {
            PIM_PANIC("perfbench probe: deliberate abort");
        } else {
            return usage("unknown command or probe case");
        }
    } catch (const std::exception& error) {
        report.fail(std::string("exception: ") + error.what());
    }
    printReport(report);
    return report.ok ? 0 : 1;
}
